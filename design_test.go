package repro_test

// The design rules, stated over the parsed tree: shapes the code was
// simplified away from stay gone. Every rule reads one parse of
// internal/, cmd/ and the root's Go files (never benchmark/, its own
// module), and reads identifiers, not text: a comment names nothing.
// Each rule first finds its subject, so a rename fails loudly instead of
// passing vacuously.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// goFile is one parsed source file.
type goFile struct {
	path, dir string // relative to the repository root
	test      bool
	ast       *ast.File
}

// parse is the one parse every rule reads: the Go files of internal/,
// cmd/ and the root, test files included.
var parse = sync.OnceValues(func() ([]goFile, error) {
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		top, _, _ := strings.Cut(path, "/")
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && top != "internal" && top != "cmd":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, goFile{path, filepath.Dir(path), strings.HasSuffix(path, "_test.go"), f})
		return err
	})
	return files, err
})

// code returns the parsed files whose directory keep accepts, test files
// only if tests.
func code(t *testing.T, tests bool, keep func(dir string) bool) []goFile {
	t.Helper()
	files, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(slices.Clone(files), func(f goFile) bool { return f.test && !tests || !keep(f.dir) })
}

// pkg returns the non-test files of the package directories dirs,
// failing if one has none: a moved package leaves no rule vacuous.
func pkg(t *testing.T, dirs ...string) []goFile {
	t.Helper()
	for _, dir := range dirs {
		if len(code(t, false, func(d string) bool { return d == dir })) == 0 {
			t.Fatalf("no non-test Go files in %s: the rule has no subject", dir)
		}
	}
	return code(t, false, func(d string) bool { return slices.Contains(dirs, d) })
}

// each calls visit for every node of files, with the declaration that
// holds it: "run.spawn", "Run", "View" (a type) or "package scope".
func each(files []goFile, visit func(f goFile, where string, n ast.Node)) {
	for _, f := range files {
		for _, d := range f.ast.Decls {
			where := "package scope"
			fn, isFn := d.(*ast.FuncDecl)
			if isFn {
				where = fn.Name.Name
				if fn.Recv != nil {
					where = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + where
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && !isFn {
					where = ts.Name.Name
				}
				if n != nil {
					visit(f, where, n)
				}
				return true
			})
		}
	}
}

// binds calls visit with each name n binds and the type or value it is
// bound to: a field or parameter, a var, an assignment to x or to x.f.
func binds(n ast.Node, visit func(name string, e ast.Expr)) {
	switch n := n.(type) {
	case *ast.Field:
		for _, id := range n.Names {
			visit(id.Name, n.Type)
		}
	case *ast.ValueSpec:
		for i, id := range n.Names {
			if n.Type != nil {
				visit(id.Name, n.Type)
			}
			if i < len(n.Values) {
				visit(id.Name, n.Values[i])
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if s, ok := lhs.(*ast.SelectorExpr); ok {
				lhs = s.Sel
			}
			if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) {
				visit(id.Name, n.Rhs[i])
			}
		}
	}
}

// hasSlice reports whether e spells a slice type whose element is elt.
func hasSlice(e ast.Expr, elt func(ast.Expr) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		arr, ok := n.(*ast.ArrayType)
		found = found || ok && arr.Len == nil && elt(arr.Elt)
		return !found
	})
	return found
}

// isSel reports whether e is the selector x.sel with x the identifier x
// ("" matches any expression).
func isSel(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	return ok && s.Sel.Name == sel && (x == "" || isIdent(s.X, x))
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// importName is the name under which f imports path, "" if it does not.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			elems := strings.Split(path, "/")
			if name := elems[len(elems)-1]; len(elems) == 1 || name[0] != 'v' || strings.Trim(name[1:], "0123456789") != "" {
				return name
			}
			return elems[len(elems)-2] // math/rand/v2 is package rand
		}
	}
	return ""
}

// refs returns f's references to the named members of the packages at
// paths, under whatever name f imports each, a dot import included.
func refs(f goFile, members []string, paths ...string) []string {
	var out []string
	for _, path := range paths {
		name, sels := importName(f.ast, path), map[*ast.Ident]bool{}
		each([]goFile{f}, func(_ goFile, where string, n ast.Node) {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if isIdent(n.X, name) && slices.Contains(members, n.Sel.Name) {
					out = append(out, f.path+": "+where+": "+name+"."+n.Sel.Name)
				}
			case *ast.Ident:
				if name == "." && !sels[n] && slices.Contains(members, n.Name) {
					out = append(out, f.path+": "+where+": "+n.Name+" (dot import of "+path+")")
				}
			}
		})
	}
	return out
}

// deleted is the one table of names that stay deleted, each with the
// design it would undo. No identifier of the tree, test files included,
// is spelled so; a name written "func X" or "type X" is barred only as
// a declaration of that kind, the word living on elsewhere (udpnet's
// InboxBuffer field, a test's delivery tracker).
var deleted = []struct {
	names []string
	why   string
}{
	{[]string{"type SingleConfig", "SweepParams", "SweepRun", "func InboxBuffer", "func BuildTransport", "ValidateBuffer"},
		"a second spelling of the run description or a second inbox-sizing or transport-building entry point: cluster.Config is the one description, cluster.Engine the one place it is resolved"},
	{[]string{"materialize", "denseMark"}, "a second representation of cluster.View: the dense/materialised pair the run list replaced"},
	{[]string{"applyLockstep", "DoneAt", "JoinAt", "CaughtUpAt", "DoneTimes"},
		"a second unit of time: the driver's tick is the one unit; the wall-clock twins of the tick fields and the async driver's own churn-op switch are gone"},
	{[]string{"type contacts", "newContacts", "AddressedTransport"},
		"a second membership set: a run's is one View the churner changes and every spawned node clones, not a per-batch contacts snapshot or a routability gate"},
	{[]string{"outbox", "outboxes", "outEntry", "flushOutboxes"},
		"the emission replay: the sharded emit phase Sends inline, order-independent by construction (per-sender middleware streams, a by-sender tick mailbox)"},
	{[]string{"lossTransport", "delayTransport", "reorderTransport", "partitionTransport", "advTransport", "mutTransport", "reorderSlot", "heldSend"},
		"a per-fault layer or hold-back slot: a run's faults are rules of one cluster.Schedule"},
	{[]string{"NewEngine", "RunFixed", "RunUntilDone", "AllDone", "ErrMaxRounds", "DefaultMaxRounds"},
		"a second synchronous runner: the model has one, dynnet.Session, and one phase entry, dynnet.Run"},
	{[]string{"newNode", "HasTargeted", "setRank"},
		"a second node constructor or a side table of published ranks: run.spawn builds every node, Node.Publish stores its progress"},
	{[]string{"type tracker", "markDone", "pendingAdds"}, "a second completion account: run.open, kept where its terms change, is the one"},
	{[]string{"peerFloor", "mergeMark", "peerMin", "ackPeers"},
		"a walk of every member per ack or per frontier: the stream's view is a frontier and bit-planes above it (markView), merged and climbed 64 ids a word"},
}

// TestDesignDeletedNamesStayDeleted holds the table above over the tree.
func TestDesignDeletedNamesStayDeleted(t *testing.T) {
	files := code(t, true, func(string) bool { return true })
	if len(files) == 0 {
		t.Fatal("no Go files parsed: the rule has no subject")
	}
	why := map[string]string{}
	for _, d := range deleted {
		for _, name := range d.names {
			why[name] = d.why
		}
	}
	each(files, func(f goFile, _ string, n ast.Node) {
		var name string
		switch n := n.(type) {
		case *ast.Ident:
			name = n.Name
		case *ast.FuncDecl:
			name = "func " + n.Name.Name
		case *ast.TypeSpec:
			name = "type " + n.Name.Name
		}
		if w, ok := why[name]; ok {
			t.Errorf("%s: %s is back, %s", f.path, name, w)
		}
	})
}

// TestDesignOneRunDescription: Shards without Lockstep is rejected in
// one place, where cluster.Config is resolved.
func TestDesignOneRunDescription(t *testing.T) {
	files, re := []string{}, regexp.MustCompile(`Shards.*requires Lockstep`)
	each(code(t, false, func(string) bool { return true }), func(f goFile, _ string, n ast.Node) {
		if lit, ok := n.(*ast.BasicLit); ok && re.MatchString(lit.Value) && !slices.Contains(files, f.path) {
			files = append(files, f.path)
		}
	})
	if len(files) != 1 {
		t.Errorf("Shards without Lockstep is rejected in %v, want exactly one non-test file", files)
	}
}

// TestDesignOneMembershipSet: a membership view has one representation,
// the run list, with no live flags beside it; a run's membership set is
// one View (run.live), with no []bool of live flags in internal/cluster.
func TestDesignOneMembershipSet(t *testing.T) {
	var view, runView bool
	each(pkg(t, "internal/cluster"), func(f goFile, where string, n ast.Node) {
		view = view || where == "View"
		binds(n, func(name string, e ast.Expr) {
			switch {
			case name != "live":
			case where == "run" && types.ExprString(e) == "*View":
				runView = true
			case where == "View":
				t.Error("View has a live field again: a view's one representation is its run list")
			case hasSlice(e, func(e ast.Expr) bool { return isIdent(e, "bool") }):
				t.Errorf("%s: %s binds a live []bool again: a run's membership set is one View", f.path, where)
			}
		})
	})
	if !view || !runView {
		t.Fatal("no type View, or no field live *View on run, in internal/cluster: the rule has no subject")
	}
}

// TestDesignOneLowering: a gossip run is a cliutil.GossipFlags value, and
// only its Open and OpenStream turn it into a config, a fault stack and a
// token set. Outside the packages that define or lower the stack, no
// non-test file builds a fault layer, parses a churn schedule or asks
// for a default transport.
func TestDesignOneLowering(t *testing.T) {
	lowering := []string{"WithLoss", "WithDelay", "WithReorder", "ParseChurn", "WithMutator", "WithAdversary", "NewAdaptive", "DefaultTransport"}
	lowerers := []string{"internal/cliutil", "internal/cluster", "internal/stream", "internal/hostile"}
	uses := map[string]bool{}
	pkg(t, lowerers...)
	each(code(t, false, func(string) bool { return true }), func(f goFile, _ string, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(lowering, id.Name) {
			uses[id.Name] = true
			if !slices.Contains(lowerers, f.dir) {
				t.Errorf("%s: %s: a run is lowered by hand outside cliutil.GossipFlags", f.path, id.Name)
			}
		}
	})
	if len(uses) != len(lowering) {
		t.Fatalf("the tree uses %v of %v: the rule has no subject", uses, lowering)
	}
}

// TestDesignFaultCode: a run's faults (loss, delay, reorder, partition,
// mutation, the adversary) are rules of one cluster.Schedule, the one
// type under internal/ and cmd/ that embeds cluster.Layer, with one lock
// across the fault code (non-test internal/hostile and the file that
// declares Schedule). And the tick is the only unit of time above the
// socket, the driver its only source (cluster.TickObserver): the fault
// code keeps no clock of its own, no adversary Interval, no read of the
// wall clock, no timer.
func TestDesignFaultCode(t *testing.T) {
	var layers []string
	faults := pkg(t, "internal/hostile")
	each(code(t, false, func(d string) bool { return d != "." }), func(f goFile, where string, n ast.Node) {
		if _, ok := n.(*ast.TypeSpec); ok && f.dir == "internal/cluster" && where == "Schedule" {
			faults = append(faults, f)
		}
		st, ok := n.(*ast.StructType)
		for i := 0; ok && i < len(st.Fields.List); i++ {
			typ := strings.TrimPrefix(types.ExprString(st.Fields.List[i].Type), "*")
			if cluster := importName(f.ast, "repro/internal/cluster"); len(st.Fields.List[i].Names) == 0 &&
				(f.dir == "internal/cluster" && typ == "Layer" || cluster != "" && typ == cluster+".Layer") {
				layers = append(layers, f.path+": "+where)
			}
		}
	})
	if len(layers) != 1 || !strings.HasSuffix(layers[0], ": Schedule") || len(faults) != len(pkg(t, "internal/hostile"))+1 {
		t.Fatalf("the types embedding cluster.Layer are %v, want exactly one, Schedule, declared once", layers)
	}
	var locks []string
	for _, f := range faults {
		locks = append(locks, refs(f, []string{"Mutex", "RWMutex"}, "sync")...)
		for _, r := range refs(f, []string{"Now", "Since", "Until", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"}, "time") {
			t.Errorf("%s: the fault code keeps a clock of its own", r)
		}
	}
	if len(locks) > 1 {
		t.Errorf("more than one lock in the fault code: %v", locks)
	}
	each(faults, func(f goFile, _ string, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && id.Name == "Interval" && f.dir == "internal/hostile" {
			t.Errorf("%s: an Interval is back: the adversary's time is the driver's tick", f.path)
		}
	})
}

// TestDesignOneGenerator: every seeded stream is internal/keyed's, 16
// bytes of state keyed by (seed, purpose, index…). A math/rand source is
// 4.9 KB and a 607-word seeding loop per stream, and a stream seeded by
// a sum of its coordinates collides with its neighbours'. Outside the
// leaf package no non-test file builds a generator, under any import
// name, or carries the key hash's splitmix64 constant.
func TestDesignOneGenerator(t *testing.T) {
	ctors := []string{"New", "NewSource", "NewPCG", "NewChaCha8"}
	var own []string
	for _, f := range pkg(t, "internal/keyed") {
		own = append(own, refs(f, ctors, "math/rand", "math/rand/v2")...)
	}
	if !slices.ContainsFunc(own, func(r string) bool { return strings.Contains(r, ": Rand: ") }) {
		t.Fatalf("keyed.Rand constructs no generator (internal/keyed does in %v): the rule has no subject", own)
	}
	others := code(t, false, func(d string) bool { return d != "internal/keyed" })
	for _, f := range others {
		for _, r := range refs(f, ctors, "math/rand", "math/rand/v2") {
			t.Errorf("%s: a seeded stream is built outside internal/keyed", r)
		}
	}
	each(others, func(f goFile, _ string, n ast.Node) {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT {
			if v, _ := strconv.ParseUint(lit.Value, 0, 64); v == 0x9e3779b97f4a7c15 {
				t.Errorf("%s: %s, the key hash's constant, outside internal/keyed", f.path, lit.Value)
			}
		}
	})
}

// TestDesignPaperSide: the synchronous model has one round clock and one
// round loop, dynnet's Session.step, the one place the adversary is
// asked for a round's topology: before any node speaks, or, omniscient,
// after. A node is Send + Receive: none keeps a clock of its own.
func TestDesignPaperSide(t *testing.T) {
	each(pkg(t, "internal/dynnet", "internal/forwarding", "internal/stable", "internal/rlnc", "internal/central", "internal/count", "internal/derand"), func(f goFile, where string, n ast.Node) {
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "Done" && fn.Type.Params.NumFields() == 0 &&
			fn.Type.Results.NumFields() == 1 && isIdent(fn.Type.Results.List[0].Type, "bool") {
			t.Errorf("%s: %s() bool: a synchronous node has a clock of its own again", f.path, where)
		}
	})
	var loops []string
	each(pkg(t, "internal/dynnet"), func(f goFile, where string, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && (isSel(call.Fun, "", "Graph") || isSel(call.Fun, "", "GraphAfterMessages")) && !slices.Contains(loops, where) {
			loops = append(loops, where)
		}
	})
	if len(loops) != 1 || loops[0] != "Session.step" {
		t.Errorf("the adversary is consulted from %v in internal/dynnet, want exactly one function, Session.step", loops)
	}
}

// TestDesignProgressHasOneWriter: a node's progress is stored in one
// place, Node.Publish, and Publish stores nothing else — no second
// scoreboard beside the one the run's Oracle reads.
func TestDesignProgressHasOneWriter(t *testing.T) {
	var publish *ast.FuncDecl
	each(pkg(t, "internal/cluster"), func(_ goFile, where string, n ast.Node) {
		if fn, ok := n.(*ast.FuncDecl); ok && where == "Node.Publish" {
			publish = fn
		}
		if s, ok := n.(*ast.SelectorExpr); ok && isSel(s.X, "", "progress") && s.Sel.Name != "Load" && where != "Node.Publish" {
			t.Errorf("%s uses progress.%s: only Node.Publish stores a node's progress", where, s.Sel.Name)
		}
		if as, ok := n.(*ast.AssignStmt); ok && slices.ContainsFunc(as.Lhs, func(e ast.Expr) bool { return isSel(e, "", "progress") }) {
			t.Errorf("%s assigns a progress field: only Node.Publish stores a node's progress", where)
		}
	})
	if publish == nil || len(publish.Body.List) != 1 || len(publish.Recv.List[0].Names) != 1 {
		t.Fatal("no method Publish of one statement on a named Node receiver in internal/cluster")
	}
	if es, ok := publish.Body.List[0].(*ast.ExprStmt); !ok || !strings.HasPrefix(types.ExprString(es.X), publish.Recv.List[0].Names[0].Name+".progress.Store(") {
		t.Error("Node.Publish's one statement is not a store of its receiver's progress")
	}
}

// TestDesignHostileOnlyRecords: internal/hostile reads the run through
// cluster.Oracle; of a telemetry.Recorder it only calls Event.
func TestDesignHostileOnlyRecords(t *testing.T) {
	hostile := pkg(t, "internal/hostile")
	recs := map[string]bool{} // the names bound to a *telemetry.Recorder
	each(hostile, func(f goFile, _ string, n ast.Node) {
		binds(n, func(name string, e ast.Expr) {
			if tel := importName(f.ast, "repro/internal/telemetry"); tel != "" && types.ExprString(e) == "*"+tel+".Recorder" {
				recs[name] = true
			}
		})
	})
	if len(recs) == 0 {
		t.Fatal("internal/hostile declares no *telemetry.Recorder: the rule has no subject")
	}
	events := 0
	each(hostile, func(f goFile, _ string, n ast.Node) {
		s, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		holder := types.ExprString(s.X)
		switch holder = holder[strings.LastIndex(holder, ".")+1:]; {
		case !recs[holder]:
		case s.Sel.Name == "Event":
			events++
		default:
			t.Errorf("%s uses %s.%s: internal/hostile may only record Events", f.path, holder, s.Sel.Name)
		}
	})
	if events == 0 {
		t.Errorf("no Event call on %v in internal/hostile: the rule has no subject", recs)
	}
}

// TestDesignOneNodeConstructor: a node has one constructor, run.spawn,
// whether it runs in-process or alone in a process; the node's own clock
// loop (drive) and the side table of published ranks (ranks) stay deleted.
func TestDesignOneNodeConstructor(t *testing.T) {
	var lits []string
	each(code(t, false, func(d string) bool { return d != "." }), func(f goFile, where string, n ast.Node) {
		lit, ok := n.(*ast.CompositeLit)
		if cluster := importName(f.ast, "repro/internal/cluster"); ok && (f.dir == "internal/cluster" && isIdent(lit.Type, "Node") || cluster != "" && isSel(lit.Type, cluster, "Node")) {
			lits = append(lits, f.path+": "+where)
		}
		binds(n, func(name string, e ast.Expr) {
			if name == "ranks" && hasSlice(e, func(e ast.Expr) bool { return isSel(e, "atomic", "Int64") }) || name == "drive" && isIdent(e, "bool") {
				t.Errorf("%s: %s, a %s field, is back", f.path, where, name)
			}
		})
	})
	if len(lits) != 1 || lits[0] != "internal/cluster/engine.go: run.spawn" {
		t.Errorf("Node composite literals in %v, want exactly one, in run.spawn", lits)
	}
}

// TestDesignDoneHasOneWriter: a node's completion is written in two
// places of internal/cluster — run.settle marks it, run.apply resets
// it when a node re-enters — and nowhere else, protocols included.
func TestDesignDoneHasOneWriter(t *testing.T) {
	writers := map[string]bool{}
	each(code(t, false, func(d string) bool { return d != "." }), func(f goFile, where string, n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok && slices.ContainsFunc(as.Lhs, func(e ast.Expr) bool { return isSel(e, "", "Done") || isSel(e, "", "DoneTick") }) {
			writers[f.path+": "+where] = true
		}
	})
	for _, w := range []string{"internal/cluster/engine.go: run.settle", "internal/cluster/engine.go: run.apply"} {
		if !writers[w] {
			t.Fatalf("%s writes no Done: the rule has no subject", w)
		}
		delete(writers, w)
	}
	for w := range writers {
		t.Errorf("%s writes a Done or DoneTick: only run.settle and run.apply may", w)
	}
}

// TestDesignOneSetOfDrivers: the engine holds two drivers, lockstep and
// wall clock, one settle that marks a node done under both and one
// churn that applies a batch under both; they and the hello plumbing
// were once written twice (cluster and stream) and every fix with them.
func TestDesignOneSetOfDrivers(t *testing.T) {
	defs := map[string][]string{}
	each(code(t, false, func(d string) bool { return strings.HasPrefix(d, "internal/") }), func(f goFile, _ string, n ast.Node) {
		if fn, ok := n.(*ast.FuncDecl); ok {
			defs[fn.Name.Name] = append(defs[fn.Name.Name], f.path)
		}
	})
	for _, name := range []string{"runLockstep", "runAsync", "helloAll", "settle", "churn"} {
		if len(defs[name]) != 1 {
			t.Errorf("%d definitions of %s under internal/ (%v), want exactly one", len(defs[name]), name, defs[name])
		}
	}
}
