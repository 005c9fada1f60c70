package lint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

// buildCFG type-checks src (a function body wrapped in a fixed harness
// of marker functions), builds the CFG of function f, and returns it
// with the tools to locate marker calls.
type cfgHarness struct {
	t    *testing.T
	g    *lint.CFG
	body *ast.BlockStmt
}

func buildCFG(t *testing.T, body string) *cfgHarness {
	t.Helper()
	src := `package p

func start()      {}
func hit()        {}
func other()      {}
func cond() bool  { return false }
func choice() int { return 0 }

func f() {
` + body + `
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	// Ignore type errors (e.g. unreachable markers): the builder only
	// needs the AST plus whatever info resolved.
	_, _ = conf.Check("p", fset, []*ast.File{file}, info)

	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fn = fd
		}
	}
	if fn == nil {
		t.Fatal("no function f in harness source")
	}
	return &cfgHarness{t: t, g: lint.NewCFG(fn.Body, info), body: fn.Body}
}

// marker returns the ExprStmt calling the named marker function.
func (h *cfgHarness) marker(name string) ast.Node {
	h.t.Helper()
	var found ast.Node
	ast.Inspect(h.body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name && found == nil {
				found = es
			}
		}
		return true
	})
	if found == nil {
		h.t.Fatalf("no call to %s in harness body", name)
	}
	return found
}

// calls reports whether node n (or a child) calls the named function.
func calls(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		return found
	}
}

// blockOf returns the block holding the named marker's statement.
func (h *cfgHarness) blockOf(name string) *lint.Block {
	h.t.Helper()
	m := h.marker(name)
	for _, blk := range h.g.Blocks {
		for _, n := range blk.Nodes {
			if n == m {
				return blk
			}
		}
	}
	h.t.Fatalf("%s is in no block", name)
	return nil
}

// walk follows every path from just after the `from` marker: the rest of
// its block, then each block the edges lead to, once. visit sees a block
// and the statements a path runs through there; it reports whether the
// search has found what it looks for, and whether the path stops there. A
// path that dies in a never-returning call has no edge onward, and a loop
// with no exit never leaves the loop.
func (h *cfgHarness) walk(from string, visit func(b *lint.Block, nodes []ast.Node) (found, stop bool)) bool {
	h.t.Helper()
	fb := h.blockOf(from)
	tail := fb.Nodes[slices.Index(fb.Nodes, h.marker(from))+1:]
	if found, stop := visit(fb, tail); found || stop {
		return found
	}
	seen := map[*lint.Block]bool{}
	stack := slices.Clone(fb.Succs)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		found, stop := visit(b, b.Nodes)
		if found {
			return true
		}
		if !stop {
			stack = append(stack, b.Succs...)
		}
	}
	return false
}

// exitAvoiding reports whether some path leads from the `from` marker to
// the function exit without passing a call to `avoid`.
func (h *cfgHarness) exitAvoiding(from, avoid string) bool {
	h.t.Helper()
	hits := calls(avoid)
	return h.walk(from, func(b *lint.Block, nodes []ast.Node) (bool, bool) {
		if slices.ContainsFunc(nodes, hits) {
			return false, true
		}
		return b == h.g.Exit, false
	})
}

// reaches reports whether some path leads from the `from` marker to the
// `to` marker: later in the same block, or in a block the edges lead to.
func (h *cfgHarness) reaches(from, to string) bool {
	h.t.Helper()
	m := h.marker(to)
	return h.walk(from, func(_ *lint.Block, nodes []ast.Node) (bool, bool) {
		return slices.Contains(nodes, m), false
	})
}

func TestCFGLinear(t *testing.T) {
	h := buildCFG(t, `
	start()
	other()
	hit()
`)
	if h.exitAvoiding("start", "hit") {
		t.Error("straight-line code after start always runs hit")
	}
	if !h.exitAvoiding("hit", "start") {
		t.Error("start runs before hit, not after it")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	h := buildCFG(t, `
	start()
	if cond() {
		return
	}
	hit()
	other()
`)
	if !h.exitAvoiding("start", "hit") {
		t.Error("the early return reaches the exit without hit")
	}
	if h.exitAvoiding("hit", "other") {
		t.Error("hit and other share a block: other always follows hit")
	}
	if h.blockOf("hit") != h.blockOf("other") {
		t.Error("straight-line statements must share a block")
	}
}

func TestCFGBothArms(t *testing.T) {
	h := buildCFG(t, `
	start()
	if cond() {
		hit()
		return
	}
	hit()
`)
	if h.exitAvoiding("start", "hit") {
		t.Error("hit on both arms: no path to the exit avoids it")
	}
}

func TestCFGNeverReturningCallEndsPath(t *testing.T) {
	h := buildCFG(t, `
	start()
	if cond() {
		panic("dies before hit")
		other()
	}
	hit()
`)
	if h.exitAvoiding("start", "hit") {
		t.Error("the panicking arm must have no edge to the exit")
	}
	if h.g.ReachableBlocks()[h.blockOf("other")] {
		t.Error("code after panic must be unreachable")
	}
	if !h.g.ReachableBlocks()[h.blockOf("hit")] {
		t.Error("the fall-through arm must stay reachable")
	}
}

func TestCFGLoopContinue(t *testing.T) {
	h := buildCFG(t, `
	for i := 0; i < 3; i++ {
		start()
		if cond() {
			continue
		}
		hit()
	}
`)
	if !h.exitAvoiding("start", "hit") {
		t.Error("continue then the loop condition exits without hit")
	}
	g := h.blockOf("start").Guards
	if len(g) != 1 || g[0].Branch != 0 || !strings.Contains(types.ExprString(g[0].Cond), "i < 3") {
		t.Errorf("loop body guards = %+v, want the for condition, Branch 0", g)
	}
}

func TestCFGLoopBreakAfter(t *testing.T) {
	h := buildCFG(t, `
	start()
	for i := 0; i < 3; i++ {
		if cond() {
			break
		}
	}
	hit()
`)
	if h.exitAvoiding("start", "hit") {
		t.Error("both loop exits (break, condition) flow into hit")
	}
}

func TestCFGSwitch(t *testing.T) {
	h := buildCFG(t, `
	start()
	switch choice() {
	case 0:
		hit()
	case 1:
		other()
	}
`)
	if !h.exitAvoiding("start", "hit") {
		t.Error("case 1 and the missing default both bypass hit")
	}
	if g := h.blockOf("other").Guards; len(g) != 1 || g[0].Branch != 1 || len(g[0].Cases) != 1 {
		t.Errorf("case 1 guards = %+v, want clause 1 with its case expression", g)
	}

	h = buildCFG(t, `
	start()
	switch choice() {
	case 0:
		hit()
	default:
		hit()
		other()
	}
`)
	if h.exitAvoiding("start", "hit") {
		t.Error("default present and every clause hits")
	}
	if g := h.blockOf("other").Guards; len(g) != 1 || g[0].Branch != 1 || g[0].Cases != nil {
		t.Errorf("default guards = %+v, want clause 1 with no case expressions", g)
	}
}

func TestCFGFallthrough(t *testing.T) {
	h := buildCFG(t, `
	switch choice() {
	case 0:
		start()
		fallthrough
	case 1:
		hit()
	default:
	}
`)
	if h.exitAvoiding("start", "hit") {
		t.Error("fallthrough chains case 0 into case 1's hit")
	}
}

func TestCFGSelect(t *testing.T) {
	h := buildCFG(t, `
	ch := make(chan int)
	start()
	select {
	case <-ch:
		hit()
	case v := <-ch:
		_ = v
		hit()
	}
`)
	if h.exitAvoiding("start", "hit") {
		t.Error("a select without default blocks until a clause runs; both hit")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	h := buildCFG(t, `
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			start()
			if cond() {
				break outer
			}
		}
		hit()
	}
`)
	if !h.exitAvoiding("start", "hit") {
		t.Error("break outer skips the inner-loop epilogue hit")
	}
	if g := h.blockOf("start").Guards; len(g) != 2 {
		t.Errorf("inner loop body guards = %+v, want both loops", g)
	}
}

func TestReaches(t *testing.T) {
	h := buildCFG(t, `
	start()
	if cond() {
		return
	}
	hit()
	other()
`)
	if !h.reaches("start", "hit") {
		t.Error("start reaches hit on the fall-through path")
	}
	if !h.reaches("hit", "other") {
		t.Error("same-block ordering: hit precedes other")
	}
	if h.reaches("other", "start") {
		t.Error("no back edge: other must not reach start")
	}
}

func TestReachableBlocksPrunesDeadCode(t *testing.T) {
	h := buildCFG(t, `
	start()
	return
	hit()
`)
	if h.g.ReachableBlocks()[h.blockOf("hit")] {
		t.Error("statement after return must be unreachable")
	}
	if !h.g.ReachableBlocks()[h.blockOf("start")] {
		t.Error("entry statement must be reachable")
	}
}

func TestGuardsCarryBranchArms(t *testing.T) {
	h := buildCFG(t, `
	if cond() {
		start()
	} else {
		hit()
	}
	other()
`)
	thenBlk, elseBlk, afterBlk := h.blockOf("start"), h.blockOf("hit"), h.blockOf("other")
	if n := len(thenBlk.Guards); n != 1 || thenBlk.Guards[0].Branch != 0 {
		t.Errorf("then arm guards = %+v, want one guard with Branch 0", thenBlk.Guards)
	}
	if n := len(elseBlk.Guards); n != 1 || elseBlk.Guards[0].Branch != 1 {
		t.Errorf("else arm guards = %+v, want one guard with Branch 1", elseBlk.Guards)
	}
	if len(afterBlk.Guards) != 0 {
		t.Errorf("merge block guards = %+v, want none", afterBlk.Guards)
	}
	if thenBlk.Guards[0].Stmt != elseBlk.Guards[0].Stmt {
		t.Error("both arms must share the same branching statement")
	}
	if !strings.Contains(types.ExprString(thenBlk.Guards[0].Cond), "cond()") {
		t.Errorf("guard condition = %s, want the if condition", types.ExprString(thenBlk.Guards[0].Cond))
	}
}
