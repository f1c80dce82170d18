// Package cfg builds intra-function control-flow graphs from go/ast
// function bodies, for the flow-sensitive lockhold pass (through
// internal/analysis/lockset). Like the rest of internal/analysis it is stdlib-only and
// mirrors the shape of golang.org/x/tools/go/cfg closely enough that a
// port would change only import paths.
//
// A Graph is a list of basic blocks. Each block holds the ast.Nodes
// that execute unconditionally once the block is entered, in order:
// simple statements, the condition expressions of if/for statements
// (placed in their own head blocks), switch case expressions, and
// marker nodes for select statements. Control-flow statements
// themselves (if/for/switch/select bodies) are decomposed into edges;
// function literals are NOT descended into — a FuncLit body is a
// different function with its own graph.
//
// Panic edges: a call to the panic builtin ends its block with an edge
// to Exit (the deferred calls run, then the function unwinds), so code
// after a panic is correctly treated as unreachable. Return statements
// likewise edge to Exit. Defer statements appear as ordinary DeferStmt
// nodes in the block where they execute; a dataflow that needs
// function-exit effects (e.g. deferred unlocks) interprets them when it
// reaches Exit.
package cfg

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks in creation order; Blocks[0] is Entry. Exit is the single
	// synthetic exit block every return/panic/fall-off edge targets.
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is a basic block: nodes that execute in order, then a jump to
// one of Succs.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block

	kind string // for String/debugging: "entry", "exit", "if.then", ...
}

// New builds the graph of one function body. body may be nil (a
// declaration without a body yields an empty entry→exit graph).
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g}
	g.Entry = b.newBlock("entry")
	g.Exit = &Block{kind: "exit"}
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(g.Exit)
	// Exit is appended last so Blocks[i].Index == i throughout.
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// String renders the graph for tests and debugging: one line per block
// with its kind and successor indices.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		succs := make([]int, 0, len(b.Succs))
		for _, s := range b.Succs {
			succs = append(succs, s.Index)
		}
		sort.Ints(succs)
		fmt.Fprintf(&sb, "%d(%s) n=%d -> %v\n", b.Index, b.kind, len(b.Nodes), succs)
	}
	return sb.String()
}

// builder carries the under-construction graph and the jump targets of
// the enclosing loops and switches.
type builder struct {
	g   *Graph
	cur *Block

	// breaks/continues are stacks of enclosing targets. A label of ""
	// matches the innermost target; labeled entries match break/continue
	// with that label.
	breaks    []target
	continues []target
}

type target struct {
	label string
	block *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump ends the current block with an edge to dst and leaves the
// builder without a current block (the next statement is unreachable
// until startBlock is called).
func (b *builder) jump(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// startBlock begins a new current block (an unreachable one if nothing
// jumped to it).
func (b *builder) startBlock(blk *Block) {
	b.cur = blk
}

// add appends a node to the current block, materializing an unreachable
// block for dead code after return/break/panic so the AST is still
// covered (dataflow marks it unreachable via its lack of predecessors).
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.startBlock(b.newBlock("unreachable"))
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt builds one statement. label is the label attached by an
// enclosing LabeledStmt (consumed by loops and switches so labeled
// break/continue resolve).
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanic(call) {
			// Deferred calls run, then the function unwinds: panic edges
			// to Exit like a return, and the fallthrough path is dead.
			b.jump(b.g.Exit)
		}

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label, false)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	case nil:
		// A nil statement (e.g. absent else) builds nothing.

	default:
		// Assign, Decl, Defer, Go, Send, IncDec, Empty: straight-line.
		b.add(s)
	}
}

// branch resolves break/continue against the enclosing target stacks.
// goto is handled conservatively: the path ends (no edge to the label),
// which over-approximates reachability of nothing and is safe for the
// may-held analyses built on top (none of the vetted packages use goto).
func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	find := func(stack []target) *Block {
		for i := len(stack) - 1; i >= 0; i-- {
			if label == "" || stack[i].label == label {
				return stack[i].block
			}
		}
		return nil
	}
	switch s.Tok.String() {
	case "break":
		if t := find(b.breaks); t != nil {
			b.add(s)
			b.jump(t)
			return
		}
	case "continue":
		if t := find(b.continues); t != nil {
			b.add(s)
			b.jump(t)
			return
		}
	case "fallthrough":
		// Handled structurally by switchBody; reaching here means a
		// malformed tree — treat as straight-line.
		b.add(s)
		return
	}
	// goto, or an unresolved label: end the path.
	b.add(s)
	b.jump(b.g.Exit)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	b.add(s.Cond)
	then := b.newBlock("if.then")
	after := b.newBlock("if.after")
	els := after
	if s.Else != nil {
		els = b.newBlock("if.else")
	}
	b.cur.Succs = append(b.cur.Succs, then, els)
	b.cur = nil

	b.startBlock(then)
	b.stmtList(s.Body.List)
	b.jump(after)

	if s.Else != nil {
		b.startBlock(els)
		b.stmt(s.Else, "")
		b.jump(after)
	}
	b.startBlock(after)
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}

	b.jump(head)
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
		head.Succs = append(head.Succs, body, after)
	} else {
		head.Succs = append(head.Succs, body)
	}
	b.cur = nil

	b.pushLoop(label, after, post)
	b.startBlock(body)
	b.stmtList(s.Body.List)
	b.jump(post)
	b.popLoop()

	if s.Post != nil {
		b.startBlock(post)
		b.stmt(s.Post, "")
		b.jump(head)
	}
	b.startBlock(after)
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")

	// The ranged expression is evaluated once, on entry; it lands in the
	// predecessor block so receives inside it are charged there.
	b.add(s.X)
	b.jump(head)
	b.startBlock(head)
	head.Succs = append(head.Succs, body, after)
	b.cur = nil

	b.pushLoop(label, after, head)
	b.startBlock(body)
	b.stmtList(s.Body.List)
	b.jump(head)
	b.popLoop()

	b.startBlock(after)
}

// switchBody builds the clauses of a switch or type switch.
// allowFallthrough distinguishes expression switches.
func (b *builder) switchBody(body *ast.BlockStmt, label string, allowFallthrough bool) {
	after := b.newBlock("switch.after")
	entry := b.cur

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("switch.case")
		if cc.List == nil {
			hasDefault = true
		}
	}

	if entry == nil {
		entry = b.newBlock("unreachable")
	}
	for _, blk := range blocks {
		entry.Succs = append(entry.Succs, blk)
	}
	if !hasDefault {
		entry.Succs = append(entry.Succs, after)
	}
	b.cur = nil

	b.breaks = append(b.breaks, target{label, after}, target{"", after})
	for i, cc := range clauses {
		b.startBlock(blocks[i])
		for _, e := range cc.List {
			b.add(e)
		}
		fell := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && allowFallthrough && br.Tok.String() == "fallthrough" {
				if i+1 < len(blocks) {
					b.jump(blocks[i+1])
					fell = true
				}
				break
			}
			b.stmt(st, "")
		}
		if !fell {
			b.jump(after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.startBlock(after)
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	// The SelectStmt node itself is recorded where the select blocks, so
	// a dataflow can ask "is this select reached with a lock held".
	b.add(s)
	after := b.newBlock("select.after")
	entry := b.cur
	b.cur = nil

	b.breaks = append(b.breaks, target{label, after}, target{"", after})
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		entry.Succs = append(entry.Succs, blk)
		b.startBlock(blk)
		// The comm statement (send/receive) is not re-added as a node:
		// its blocking nature is attributed to the select itself.
		b.stmtList(cc.Body)
		b.jump(after)
	}
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.startBlock(after)
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, target{label, brk}, target{"", brk})
	b.continues = append(b.continues, target{label, cont}, target{"", cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.continues = b.continues[:len(b.continues)-2]
}

// isPanic recognizes a direct call to the panic builtin. It is purely
// syntactic (a shadowed `panic` identifier would be misread), which is
// acceptable for the conservative may-analyses built on the graph.
func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
