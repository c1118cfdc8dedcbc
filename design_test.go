package repro_test

// The design rules, stated over the parsed tree: shapes the code was
// simplified away from stay gone. Every rule reads one parse of
// internal/, cmd/ and the root's Go files, or one type-check of their
// non-test files and benchmark/'s (its own module, only as a caller of
// internal/), and reads identifiers, not text: a comment names nothing.
// Each rule first finds its subject, so a rename fails loudly instead of
// passing vacuously.

import (
	"bytes"
	"errors"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
)

// goFile is one parsed source file.
type goFile struct {
	path, dir string // relative to the repository root
	test      bool
	ast       *ast.File
}

// parse is the one parse every rule reads: the Go files of internal/,
// cmd/ and the root, test files included.
var parse = sync.OnceValues(func() ([]goFile, error) { return parseDir(".", "internal", "cmd") })

// parseDir parses the Go files of root, and of those of its
// subdirectories named in subdirs.
func parseDir(root string, subdirs ...string) ([]goFile, error) {
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, path)
		top, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		switch {
		case err != nil:
			return err
		case d.IsDir() && rel != "." && !slices.Contains(subdirs, top):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, goFile{filepath.ToSlash(path), filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go"), f})
		return err
	})
	return files, err
}

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
// InboxBuffer field, a test's delivery tracker), and one written "type
// p.X" or "func p.X" only as a declaration in package p.
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
	{[]string{"IntroducePeers", "RunEnd", "fillRun", "vectorForm", "packMarks", "unpackRun", "unpackWord", "lanes8", "lanes16", "lanes32"},
		"a second wire form of a control body: a hello is its sender's view runs (wire.Run) from view to view, an ack's view a frontier and planes"},
	{[]string{"AnnounceLookup", "AnnounceLookupOK"}, "a second announce exchange: a lookup is a ping to a known peer, answered by a pong"},
	{[]string{"adoptOrphans", "lowestEligible", "adopted", "serveQ", "serveReq", "queueServe", "serveCatchup"},
		"re-sourcing stream tokens from the Source at nodes that were never sent them: a token enters only at its origin (TestDesignStreamSourceIsAnOracle)"},
	{[]string{"type Observer", "ObserveRound", "InnovationCurve", "DecodableCurve", "CompletionRound", "MinKnown", "MeanKnown", "MaxKnown", "MeanDecodable"},
		"a second way to watch synchronous rounds: one-round phases are the one (rlnc.IndexedBroadcast's stop function)"},
	{[]string{"PipelinedFloodNode", "NewPipelinedFloodNode", "type FloodNode", "NewFloodNode"},
		"a second knowledge-based flooding node: forwarding's one node runs the Theorem 2.1 and the T-stable schedules"},
	{[]string{"MaxFloodNode", "NewMaxFloodNode", "SmallestFloodNode", "NewSmallestFloodNode"},
		"a second value flood: forwarding floods values through one node"},
	{[]string{"type central.Node", "func central.NewNode"}, "a second Lemma 5.3 node: central wraps rlnc.BroadcastNode"},
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
		var name, qualified string
		switch n := n.(type) {
		case *ast.Ident:
			name = n.Name
		case *ast.FuncDecl:
			name = "func " + n.Name.Name
			qualified = "func " + strings.TrimSuffix(f.ast.Name.Name, "_test") + "." + n.Name.Name
		case *ast.TypeSpec:
			name = "type " + n.Name.Name
			qualified = "type " + strings.TrimSuffix(f.ast.Name.Name, "_test") + "." + n.Name.Name
		}
		for _, name := range []string{name, qualified} {
			if w, ok := why[name]; ok {
				t.Errorf("%s: %s is back, %s", f.path, name, w)
			}
		}
	})
}

// TestDesignStreamSourceIsAnOracle: a stream token enters only at its
// origin. In internal/stream a node reads the Source for its own share
// (node.ensureGen) and to verify a delivery (node.verify), and a run
// for its shape (Config.engine); nothing else re-derives a token a node
// was never sent.
func TestDesignStreamSourceIsAnOracle(t *testing.T) {
	readers := map[string]bool{}
	each(pkg(t, "internal/stream"), func(_ goFile, where string, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isSel(call.Fun, "", "Generation") {
			readers[where] = true
		}
	})
	if !readers["node.ensureGen"] || !readers["node.verify"] {
		t.Fatalf("Source.Generation is called from %v, not from node.ensureGen and node.verify: the rule has no subject", readers)
	}
	for where := range readers {
		if where != "node.ensureGen" && where != "node.verify" && where != "Config.engine" {
			t.Errorf("%s reads the stream's Source: a token enters only at its origin, and the Source is only its oracle", where)
		}
	}
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
// middleware: the one type under internal/ and cmd/ that embeds
// cluster.Transport, so the one the drivers see through, with one lock
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
				(f.dir == "internal/cluster" && typ == "Transport" || cluster != "" && typ == cluster+".Transport") {
				layers = append(layers, f.path+": "+where)
			}
		}
	})
	if len(layers) != 1 || !strings.HasSuffix(layers[0], ": Schedule") || len(faults) != len(pkg(t, "internal/hostile"))+1 {
		t.Fatalf("the types embedding cluster.Transport are %v, want exactly one, Schedule, declared once", layers)
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

// exportsWithoutCallers is the allowlist of TestDesignExportsHaveCallers:
// the exported names under internal/ that no non-test file reaches, and
// the exported fields that none sets, each with why it stays. A test that
// can build a value itself does not earn its builder a place here.
var exportsWithoutCallers = map[string]string{
	// Paper constructions that only tests run. Moved into _test.go files
	// they would cost as many lines and bury the result in a test.
	"adversary.NewIsolateInformed":   "the lower-bound bottleneck adversary, run by the adversary, rlnc and dissem tests and an example",
	"derand.AdviceSchedule":          "Corollary 6.2's advice matrix (Section 6), run by derand's tests",
	"derand.FailureExponentBits":     "Theorem 6.1's per-witness failure exponent (Section 6), checked by derand's tests",
	"rlnc.NewScheduledBroadcastNode": "the deterministic broadcast node of Corollary 6.2 (Section 6), run by the derand and rlnc tests",
	"stable.AblationMetaRounds":      "the second-share ablation of Section 5.2's meta-round, run by stable's tests and a root benchmark",
	"exp.EndgameCodedDecodes":        "E9's coded endgame (Section 8), run by exp's tests, the smoke test and an example",
	"rlnc.Span.Senses":               "Definition 5.1's sensing, whose Lemma 5.3 rlnc's tests measure",
	"rlnc.GSpan.Decode":              "the general-field decode of Section 6, run by rlnc's tests (the derandomised runs ask only CanDecode)",
	// Shared with fuzz targets of another package.
	"hostile.Mutate": "the byte recipes WithMutator puts on the wire, which udpnet's mutated-ingress fuzz feeds its parser",
	// Read by a test that must live outside its package.
	"cluster.Schedule.Ledger":    "the schedule's packet account, audited by cluster's stack tests, which import hostile and so cannot be in package cluster",
	"telemetry.Recorder.Samples": "a node's time series, read by cluster's mailbox tests, which cannot be in package telemetry",
	// Fields that only tests set.
	"dynnet.Config.ValidateConnectivity": "a model check tests turn on; always on, cmd/experiments -quick -seed 1 takes 3.4 s instead of 2.8 s, output unchanged",
	"udpnet.Config.MaxPacket":            "a deployment setting, and how the oversize path is tested over loopback",
	// Methods a standard-library interface calls.
	"keyed.source.Int63": "rand.Source",
	"keyed.source.Seed":  "rand.Source",
}

// typedTree is the tree type-checked from source: the non-test files of
// every package of internal/, cmd/, the root and benchmark/, in one Info.
type typedTree struct {
	pkgs  map[string]*types.Package // by import path
	files map[*types.Package][]*ast.File
	info  *types.Info
	std   types.Importer // the standard library's
	fset  *token.FileSet
}

// importerFunc is an Importer written as a function.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typed loads the typed tree once: repro/... from the tree's directories
// (repro/benchmark is benchmark/, its own module over this one), the
// standard library through go/importer's source importer.
var typed = sync.OnceValues(func() (*typedTree, error) {
	fset := token.NewFileSet()
	tt := &typedTree{pkgs: map[string]*types.Package{}, files: map[*types.Package][]*ast.File{}, std: importer.ForCompiler(fset, "source", nil), fset: fset, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	var load func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "repro" || strings.HasPrefix(path, "repro/") {
			return load(path)
		}
		return tt.std.Import(path)
	})
	load = func(path string) (*types.Package, error) {
		if p, ok := tt.pkgs[path]; ok {
			return p, nil
		}
		dir := "." + strings.TrimPrefix(path, "repro")
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files, tt.info)
		tt.pkgs[path], tt.files[p] = p, files
		return p, err
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		top, _, _ := strings.Cut(filepath.ToSlash(path), "/")
		switch {
		case err != nil || !d.IsDir():
			return err
		case path != "." && !slices.Contains([]string{"internal", "cmd", "benchmark"}, top):
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		_, err = load(strings.TrimSuffix("repro/"+filepath.ToSlash(path), "/."))
		return err
	})
	return tt, err
})

// TestDesignExportsHaveCallers: every exported function, method, constant,
// variable and type declared in a non-test file under internal/ is
// reached from a non-test file of the tree (internal/, cmd/, the root or
// benchmark/), and every exported field of an exported struct there is
// set by one; else it is in exportsWithoutCallers. Reached means a typed
// use of that very object (a generic instance counts for its origin), so
// another type's method of the same name does not count. A method is also
// reached when its receiver type implements an interface whose method a
// non-test file calls, or when it is the String or Error of fmt.Stringer
// or error. A field is set by a keyed or positional literal, an
// assignment (to it or to an index of it), an increment or by taking its
// address; a field nothing sets is a constant, not a knob. An allowlisted
// name must exist and be unreached, so the list only shrinks.
func TestDesignExportsHaveCallers(t *testing.T) {
	tt, err := typed()
	if err != nil {
		t.Fatal(err)
	}
	// The subjects: objects of the packages under internal/, by name.
	subjects := map[types.Object]string{}
	fields := map[*types.Var]string{}
	for path, p := range tt.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() {
				subjects[obj] = p.Name() + "." + name
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() {
					subjects[m] = p.Name() + "." + name + "." + m.Name()
				}
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for m := range it.ExplicitMethods() {
					if m.Exported() {
						subjects[m] = p.Name() + "." + name + "." + m.Name()
					}
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok && obj.Exported() {
				for f := range st.Fields() {
					if f.Exported() {
						fields[f] = p.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}
	// The uses: every object a non-test file names, every interface
	// method it calls, every field it sets.
	reached := map[types.Object]bool{}
	for _, obj := range tt.info.Uses {
		reached[origin(obj)] = true
	}
	type ifaceCall struct {
		iface *types.Interface
		name  string
	}
	var calls []ifaceCall
	for _, sel := range tt.info.Selections {
		if iface, ok := sel.Recv().Underlying().(*types.Interface); ok && sel.Kind() != types.FieldVal {
			calls = append(calls, ifaceCall{iface, sel.Obj().Name()})
		}
	}
	fmtPkg, err := tt.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls,
		ifaceCall{fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface), "String"},
		ifaceCall{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "Error"})
	set := map[types.Object]bool{}
	for _, files := range tt.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				for _, obj := range tt.sets(n) {
					set[obj] = true
				}
				return true
			})
		}
	}
	run := tt.pkgs["repro/internal/cluster"].Scope().Lookup("Run")
	if len(subjects) == 0 || !reached[run] {
		t.Fatalf("%d exports under internal/, cluster.Run reached: %v: the rule has no subject", len(subjects), reached[run])
	}
	unreached := map[string]string{} // by name: why it is unreached, "" if it is not
	for obj, name := range subjects {
		ok := reached[obj]
		if m, isFunc := obj.(*types.Func); isFunc && !ok {
			if recv := m.Signature().Recv(); recv != nil {
				for _, c := range calls {
					ok = ok || c.name == m.Name() && (types.Implements(recv.Type(), c.iface) || types.Implements(types.NewPointer(recv.Type()), c.iface))
				}
			}
		}
		unreached[name] = ""
		if !ok {
			unreached[name] = "has no use outside tests"
		}
	}
	for f, name := range fields {
		unreached[name] = ""
		if !set[f] {
			unreached[name] = "is never set outside tests: a constant, not a knob"
		}
	}
	for name, why := range unreached {
		_, listed := exportsWithoutCallers[name]
		switch {
		case why != "" && !listed:
			t.Errorf("%s %s", name, why)
		case why == "" && listed:
			t.Errorf("%s is allowlisted but reached outside tests: take it off the list", name)
		}
	}
	for name := range exportsWithoutCallers {
		if _, ok := unreached[name]; !ok {
			t.Errorf("%s is allowlisted but declared nowhere under internal/", name)
		}
	}
}

// sets returns the fields node n writes: by a keyed or positional
// literal, an assignment (to a field or to an index of one), an
// increment or by taking the field's address.
func (tt *typedTree) sets(n ast.Node) []types.Object {
	var out []types.Object
	field := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				out = append(out, origin(tt.info.Uses[x.Sel]))
				return
			default:
				return
			}
		}
	}
	switch n := n.(type) {
	case *ast.CompositeLit:
		typ := tt.info.Types[n].Type // *T for an elided &T
		if ptr, isPtr := typ.Underlying().(*types.Pointer); isPtr {
			typ = ptr.Elem()
		}
		st, ok := typ.Underlying().(*types.Struct)
		for i, elt := range n.Elts {
			if kv, keyed := elt.(*ast.KeyValueExpr); keyed && ok {
				out = append(out, origin(tt.info.Uses[kv.Key.(*ast.Ident)]))
			} else if ok {
				out = append(out, origin(st.Field(i)))
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			field(lhs)
		}
	case *ast.IncDecStmt:
		field(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			field(n.X)
		}
	}
	return out
}

// TestDesignIDListsOnlyInBenchmark: a hello travels as its sender's view
// runs and an ack's view as a frontier and planes. The id-by-id lists,
// wire.Ack.Peers and wire.Hello.Peers, the constructors that fold them,
// wire.NewAck and wire.NewHello, and cluster.View.AppendPeers are the
// benchmark's: no non-test file outside benchmark/ sets such a list or
// calls one of them.
func TestDesignIDListsOnlyInBenchmark(t *testing.T) {
	tt, err := typed()
	if err != nil {
		t.Fatal(err)
	}
	wire, cluster := tt.pkgs["repro/internal/wire"], tt.pkgs["repro/internal/cluster"]
	member := func(p *types.Package, typ, name string) types.Object {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(p.Scope().Lookup(typ).Type()), false, p, name)
		return obj
	}
	subjects := map[types.Object]string{
		member(wire, "Ack", "Peers"):           "sets wire.Ack.Peers",
		member(wire, "Hello", "Peers"):         "sets wire.Hello.Peers",
		wire.Scope().Lookup("NewAck"):          "calls wire.NewAck",
		wire.Scope().Lookup("NewHello"):        "calls wire.NewHello",
		member(cluster, "View", "AppendPeers"): "calls cluster.View.AppendPeers",
	}
	inBenchmark := map[string]bool{}
	for p, files := range tt.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				objs := tt.sets(n)
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := tt.info.Uses[id].(*types.Func); ok {
						objs = append(objs, origin(fn))
					}
				}
				for _, obj := range objs {
					what, ok := subjects[obj]
					switch {
					case !ok:
					case p.Path() == "repro/benchmark":
						inBenchmark[what] = true
					default:
						t.Errorf("%s %s: an id-by-id list outside benchmark/", tt.fset.Position(n.Pos()), what)
					}
				}
				return true
			})
		}
	}
	for obj, what := range subjects {
		if obj == nil || !inBenchmark[what] {
			t.Fatalf("benchmark/ no longer %s: the rule has no subject", what)
		}
	}
}

// origin is the generic declaration of an instance's method or field, obj
// itself otherwise.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// TestDocCommittedOutputs: every "Committed output" table of DESIGN.md is
// what its command prints today, exp.Find(id).Run at the table's -trials
// and seed 1, line by line with trailing spaces trimmed.
func TestDocCommittedOutputs(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := regexp.MustCompile("Committed\\s+output\\s+\\(`go\\s+run\\s+\\./cmd/experiments\\s+-run\\s+(E\\d+)\\s+-trials\\s+(\\d+)`,\\s+seed\\s+1\\):\\s*```\n([^`]*)```").FindAllStringSubmatch(string(text), -1)
	if n := len(regexp.MustCompile(`Committed\s+output`).FindAllIndex(text, -1)); n == 0 || len(tables) != n {
		t.Fatalf("%d committed outputs in DESIGN.md, %d of them a -run -trials table at seed 1: the rule has no subject, or one is not in its form", n, len(tables))
	}
	lines := func(s string) []string {
		out := strings.Split(strings.TrimRight(s, " \n"), "\n")
		for i := range out {
			out[i] = strings.TrimRight(out[i], " ")
		}
		return out
	}
	for _, m := range tables {
		e, err := exp.Find(m[1])
		if err != nil {
			t.Fatal(err)
		}
		trials, _ := strconv.Atoi(m[2])
		tbl, err := e.Run(exp.Config{Trials: trials, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m[1], err)
		}
		got, want := lines(tbl.String()), lines(m[3])
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				t.Errorf("DESIGN.md's %s table at -trials %d differs at line %d:\n%s", m[1], trials, i+1, tbl.String())
				break
			}
		}
	}
}

// TestDocCommandFlagsRegistered: every -flag of a `go run ./cmd/X …` line
// in doc.go, DESIGN.md and the verify skill's notes is a flag cmd/X
// registers, through package flag in its own code or in a function of the
// tree it calls (cliutil.GossipFlags.Register). A command is read to the
// end of its line, or of its code span when it sits in one; a shell
// comment, pipe or redirection ends it.
func TestDocCommandFlagsRegistered(t *testing.T) {
	tt, err := typed()
	if err != nil {
		t.Fatal(err)
	}
	// flagName is the callee of call and, when it defines a flag of
	// package flag, the flag's name.
	flagName := func(call *ast.CallExpr) (*types.Func, string) {
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		}
		callee, _ := tt.info.Uses[id].(*types.Func)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "flag" {
			return callee, ""
		}
		params := callee.Signature().Params()
		for i := range min(params.Len(), len(call.Args)) {
			if v := tt.info.Types[call.Args[i]].Value; params.At(i).Name() == "name" && v != nil && v.Kind() == constant.String {
				return callee, constant.StringVal(v)
			}
		}
		return callee, ""
	}
	registers := map[*types.Func][]string{} // the flags each function of the tree defines
	for _, files := range tt.files {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := tt.info.Defs[fd.Name].(*types.Func)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if _, name := flagName(call); name != "" {
							registers[fn] = append(registers[fn], name)
						}
					}
					return true
				})
			}
		}
	}
	flags := map[string]map[string]bool{} // by command
	for path, p := range tt.pkgs {
		cmd, ok := strings.CutPrefix(path, "repro/cmd/")
		if !ok {
			continue
		}
		flags[cmd] = map[string]bool{"h": true, "help": true}
		for _, f := range tt.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					callee, name := flagName(call)
					if name != "" {
						flags[cmd][name] = true
					}
					if callee != nil {
						for _, name := range registers[callee.Origin()] {
							flags[cmd][name] = true
						}
					}
				}
				return true
			})
		}
	}
	command := regexp.MustCompile(`go run \./cmd/(\w+)`)
	flag := regexp.MustCompile(`(?:^|[\s\[])--?([A-Za-z][\w-]*)`)
	checked := 0
	for _, doc := range []string{"doc.go", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllSubmatchIndex(text, -1) {
			cmd, rest := string(text[m[2]:m[3]]), string(text[m[1]:])
			line := text[bytes.LastIndexByte(text[:m[0]], '\n')+1 : m[0]]
			if bytes.Count(line, []byte("`"))%2 == 1 {
				rest, _, _ = strings.Cut(rest, "`")
			} else {
				rest, _, _ = strings.Cut(rest, "\n")
			}
			if i := strings.IndexAny(rest, "#|>;&"); i >= 0 {
				rest = rest[:i]
			}
			checked++
			if flags[cmd] == nil {
				t.Errorf("%s: go run ./cmd/%s%s: no command %s in the tree", doc, cmd, rest, cmd)
			}
			for _, f := range flag.FindAllStringSubmatch(rest, -1) {
				if flags[cmd] != nil && !flags[cmd][f[1]] {
					t.Errorf("%s: go run ./cmd/%s%s: cmd/%s registers no -%s", doc, cmd, rest, cmd, f[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no go run ./cmd/ line in the docs: the rule has no subject")
	}
}

// TestDocNamesResolve: every back-quoted pkg.Name or pkg.Type.Member in
// DESIGN.md, doc.go and the verify skill's notes, pkg a directory under
// internal/ or cmd/, names a declaration of that package (test files
// included): a top-level name, or a method or field of a type. A metric
// name (BENCHMARK.json's, such as rlnc.combine_ns) holds an underscore,
// which the pattern leaves out. benchmark/README.md is out of scope:
// benchmark/ is its own module and is edited only with the benchmark.
func TestDocNamesResolve(t *testing.T) {
	decls := map[string]bool{} // "dir Name" and "dir Type.Member"
	for _, f := range code(t, true, func(string) bool { return true }) {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
					name = recv + "." + name
				}
				decls[f.dir+" "+name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls[f.dir+" "+s.Name.Name] = true
						var fields *ast.FieldList
						switch typ := s.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						for _, fl := range fieldList(fields) {
							for _, id := range fl.Names {
								decls[f.dir+" "+s.Name.Name+"."+id.Name] = true
							}
							if len(fl.Names) == 0 {
								embedded := types.ExprString(fl.Type)
								decls[f.dir+" "+s.Name.Name+"."+embedded[strings.LastIndex(embedded, ".")+1:]] = true
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							decls[f.dir+" "+id.Name] = true
						}
					}
				}
			}
		}
	}
	span := regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*(\\.[A-Za-z][A-Za-z0-9]*)?)`")
	checked := 0
	for _, doc := range []string{"DESIGN.md", "doc.go", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(text), -1) {
			var dirs []string
			for _, dir := range []string{"internal/" + m[1], "cmd/" + m[1]} {
				if st, err := os.Stat(dir); err == nil && st.IsDir() {
					dirs = append(dirs, dir)
				}
			}
			if len(dirs) == 0 {
				continue
			}
			checked++
			if !slices.ContainsFunc(dirs, func(dir string) bool { return decls[dir+" "+m[2]] }) {
				t.Errorf("%s: %s names no declaration in %v", doc, m[0], dirs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no back-quoted package name in the docs: the rule has no subject")
	}
}

// fieldList returns l's fields, none if l is nil.
func fieldList(l *ast.FieldList) []*ast.Field {
	if l == nil {
		return nil
	}
	return l.List
}
