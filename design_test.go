package repro_test

// The design rules, stated over the parsed non-test tree: shapes the
// code was simplified away from stay gone. Each rule first finds its
// subject, so a rename fails loudly instead of passing vacuously.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goFile is one parsed non-test source file.
type goFile struct {
	path, dir string // slash-separated, relative to the repository root
	ast       *ast.File
}

// parseTree parses every non-test Go file under the given directories.
func parseTree(t *testing.T, roots ...string) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, goFile{filepath.ToSlash(path), filepath.ToSlash(filepath.Dir(path)), f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files under %v", roots)
	}
	return files
}

// inDir returns the files of one package directory.
func inDir(files []goFile, dir string) []goFile {
	var out []goFile
	for _, f := range files {
		if f.dir == dir {
			out = append(out, f)
		}
	}
	return out
}

// recvType is the receiver's type name of a method ("" for a function).
func recvType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// funcs calls visit for every function declaration of files.
func funcs(files []goFile, visit func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				visit(fn)
			}
		}
	}
}

// isSel reports whether e is the selector x.sel with x the identifier x
// ("" matches any expression).
func isSel(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	if x == "" {
		return true
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == x
}

// importName is the name under which f imports path, "" if it does not.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// TestDesignProgressHasOneWriter: a node's progress is stored in one
// place, Node.Publish, and Publish stores nothing else — no second
// scoreboard beside the one the run's Oracle reads.
func TestDesignProgressHasOneWriter(t *testing.T) {
	cluster := inDir(parseTree(t, "internal/cluster"), "internal/cluster")
	var publish *ast.FuncDecl
	funcs(cluster, func(fn *ast.FuncDecl) {
		if fn.Name.Name == "Publish" && recvType(fn) == "Node" {
			publish = fn
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if s, ok := call.Fun.(*ast.SelectorExpr); ok && isSel(s.X, "", "progress") && s.Sel.Name != "Load" && fn.Name.Name != "Publish" {
					t.Errorf("%s calls progress.%s: only Node.Publish stores a node's progress", fn.Name.Name, s.Sel.Name)
				}
			}
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if isSel(lhs, "", "progress") {
						t.Errorf("%s assigns a progress field: only Node.Publish stores a node's progress", fn.Name.Name)
					}
				}
			}
			return true
		})
	})
	if publish == nil {
		t.Fatal("no method Publish on Node in internal/cluster")
	}
	body := publish.Body.List
	if len(body) != 1 {
		t.Fatalf("Node.Publish has %d statements, want the one store of progress", len(body))
	}
	var call *ast.CallExpr
	if es, ok := body[0].(*ast.ExprStmt); ok {
		call, _ = es.X.(*ast.CallExpr)
	}
	var recv string
	if names := publish.Recv.List[0].Names; len(names) == 1 {
		recv = names[0].Name
	}
	if call == nil || recv == "" || !isSel(call.Fun, "", "Store") || !isSel(call.Fun.(*ast.SelectorExpr).X, recv, "progress") {
		t.Error("Node.Publish's one statement is not a store of its receiver's progress")
	}
}

// TestDesignHostileOnlyRecords: internal/hostile reads the run through
// cluster.Oracle; of a telemetry.Recorder it only calls Event.
func TestDesignHostileOnlyRecords(t *testing.T) {
	methods := map[string]bool{}
	funcs(inDir(parseTree(t, "internal/telemetry"), "internal/telemetry"), func(fn *ast.FuncDecl) {
		if recvType(fn) == "Recorder" {
			methods[fn.Name.Name] = true
		}
	})
	if !methods["Event"] || len(methods) < 2 {
		t.Fatalf("telemetry.Recorder's methods are %v: want Event among others", methods)
	}
	hostile := inDir(parseTree(t, "internal/hostile"), "internal/hostile")
	// The names declared as a *telemetry.Recorder: parameters, fields,
	// variables.
	recs := map[string]bool{}
	for _, f := range hostile {
		tel := importName(f.ast, "repro/internal/telemetry")
		isRec := func(e ast.Expr) bool {
			star, ok := e.(*ast.StarExpr)
			return ok && tel != "" && isSel(star.X, tel, "Recorder")
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if isRec(n.Type) {
					for _, name := range n.Names {
						recs[name.Name] = true
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil && isRec(n.Type) {
					for _, name := range n.Names {
						recs[name.Name] = true
					}
				}
			}
			return true
		})
	}
	if len(recs) == 0 {
		t.Fatal("internal/hostile declares no *telemetry.Recorder: the rule has no subject")
	}
	events := 0
	for _, f := range hostile {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			s, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !methods[s.Sel.Name] {
				return true
			}
			var holder string
			switch x := s.X.(type) {
			case *ast.Ident:
				holder = x.Name
			case *ast.SelectorExpr:
				holder = x.Sel.Name
			}
			switch {
			case !recs[holder]:
			case s.Sel.Name == "Event":
				events++
			default:
				t.Errorf("%s calls %s.%s: internal/hostile may only record Events", f.path, holder, s.Sel.Name)
			}
			return true
		})
	}
	if events == 0 {
		t.Errorf("no Event call on %v in internal/hostile: the rule has no subject", recs)
	}
}

// TestDesignOneNodeConstructor: a node has one constructor, run.spawn,
// whether it runs in-process or alone in a process. The separate
// constructor (newNode), the node's own clock loop (drive) and the side
// table of published ranks (ranks, setRank, HasTargeted) stay deleted.
func TestDesignOneNodeConstructor(t *testing.T) {
	files := parseTree(t, "internal", "cmd")
	var lits []string
	for _, f := range files {
		cluster := importName(f.ast, "repro/internal/cluster")
		for _, d := range f.ast.Decls {
			where := "package scope"
			if fn, ok := d.(*ast.FuncDecl); ok {
				where = fn.Name.Name
				if r := recvType(fn); r != "" {
					where = r + "." + where
				}
				if fn.Name.Name == "newNode" {
					t.Errorf("%s defines %s: a node's one constructor is run.spawn", f.path, where)
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					id, local := lit.Type.(*ast.Ident)
					if (local && f.dir == "internal/cluster" && id.Name == "Node") || (cluster != "" && isSel(lit.Type, cluster, "Node")) {
						lits = append(lits, f.path+": "+where)
					}
				}
				return true
			})
		}
	}
	if len(lits) != 1 || lits[0] != "internal/cluster/engine.go: run.spawn" {
		t.Errorf("Node composite literals in %v, want exactly one, in run.spawn", lits)
	}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var names []*ast.Ident
			var typ ast.Expr
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "HasTargeted" || n.Name == "setRank" {
					t.Errorf("%s: %s is back", f.path, n.Name)
				}
			case *ast.Field:
				names, typ = n.Names, n.Type
			case *ast.ValueSpec:
				names, typ = n.Names, n.Type
			}
			for _, name := range names {
				if arr, ok := typ.(*ast.ArrayType); name.Name == "ranks" && ok && arr.Len == nil && isSel(arr.Elt, "atomic", "Int64") {
					t.Errorf("%s: a ranks []atomic.Int64 table is back", f.path)
				}
				if id, ok := typ.(*ast.Ident); name.Name == "drive" && ok && id.Name == "bool" {
					t.Errorf("%s: a drive bool is back", f.path)
				}
			}
			return true
		})
	}
}

// TestDesignDoneHasOneWriter: a node's completion is written in two
// places of internal/cluster — run.settle marks it, run.apply resets
// it when a node re-enters — and nowhere else, protocols included.
func TestDesignDoneHasOneWriter(t *testing.T) {
	files := parseTree(t, "internal", "cmd")
	writers := map[string]bool{}
	for _, f := range files {
		funcs([]goFile{f}, func(fn *ast.FuncDecl) {
			ast.Inspect(fn, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, lhs := range as.Lhs {
					if isSel(lhs, "", "Done") || isSel(lhs, "", "DoneTick") {
						writers[f.path+": "+recvType(fn)+"."+fn.Name.Name] = true
					}
				}
				return true
			})
		})
	}
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
// The async driver's own completion tracker, its markDone and the
// per-tick scan for pending additions stay deleted.
func TestDesignOneSetOfDrivers(t *testing.T) {
	defs := map[string][]string{}
	for _, f := range parseTree(t, "internal") {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				defs[d.Name.Name] = append(defs[d.Name.Name], f.path)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == "tracker" {
						t.Errorf("%s: type tracker is back", f.path)
					}
				}
			}
		}
	}
	for _, name := range []string{"runLockstep", "runAsync", "helloAll", "settle", "churn"} {
		if len(defs[name]) != 1 {
			t.Errorf("%d definitions of %s under internal/ (%v), want exactly one", len(defs[name]), name, defs[name])
		}
	}
	for _, name := range []string{"markDone", "pendingAdds"} {
		if len(defs[name]) != 0 {
			t.Errorf("%s is back in %v", name, defs[name])
		}
	}
}
