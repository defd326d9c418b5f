// Bottom-up rewriting primitives over the AST. Walk (walk.go) is the
// read-only traversal; the rewriters here are its mutating counterparts,
// shared by the obfuscators (internal/obfuscate) and the normalization
// passes (internal/deobfuscate). Both visit children before parents, so a
// callback always sees a subtree whose inner nodes have already been
// rewritten — the natural shape for constant folding and literal inlining.
package ast

// ExprRewriter maps an expression to its replacement. Returning the
// argument unchanged keeps the node; returning a different Expression
// splices it into the parent in place.
type ExprRewriter func(Expression) Expression

// StmtRewriter maps a statement to a replacement list. The boolean reports
// whether a rewrite happened: (nil, true) deletes the statement,
// (list, true) splices list in its place, (_, false) keeps the original.
// In single-statement positions (an if branch, a loop body) a multi-element
// replacement is wrapped in a block and an empty one becomes `;`.
type StmtRewriter func(Statement) ([]Statement, bool)

// RewriteExpressions rewrites every expression under prog bottom-up with f,
// mutating the tree in place. Identifiers in pure name positions — object
// literal keys, non-computed member properties, declaration and parameter
// binding sites, assignment and update targets — are never passed to f:
// they are names, not value references, and substituting a value there
// would corrupt the program.
func RewriteExpressions(prog *Program, f ExprRewriter) {
	r := &rewriter{expr: f}
	prog.Body = r.stmtList(prog.Body)
}

// RewriteStatements rewrites every statement under prog bottom-up with f,
// mutating the tree in place. Children are rewritten before f sees their
// parent, so a statement spliced in by f is NOT revisited in the same call
// — run the rewrite again (or iterate to fixpoint) to reach new material.
func RewriteStatements(prog *Program, f StmtRewriter) {
	r := &rewriter{stmt: f}
	prog.Body = r.stmtList(prog.Body)
}

type rewriter struct {
	expr ExprRewriter
	stmt StmtRewriter
}

// stmtList rewrites a statement list, splicing replacements in place.
func (r *rewriter) stmtList(list []Statement) []Statement {
	out := make([]Statement, 0, len(list))
	changed := false
	for _, s := range list {
		repl, ch := r.oneStmt(s)
		if ch {
			changed = true
			out = append(out, repl...)
		} else {
			out = append(out, s)
		}
	}
	if !changed {
		return list
	}
	return out
}

// oneStmt rewrites s's children, then applies the statement callback.
func (r *rewriter) oneStmt(s Statement) ([]Statement, bool) {
	r.walkStmt(s)
	if r.stmt != nil {
		if repl, ok := r.stmt(s); ok {
			return repl, true
		}
	}
	return nil, false
}

// single rewrites a statement in a position that must hold exactly one
// statement (if branch, loop body, labeled body).
func (r *rewriter) single(s Statement) Statement {
	if s == nil {
		return nil
	}
	repl, ch := r.oneStmt(s)
	if !ch {
		return s
	}
	switch len(repl) {
	case 0:
		return &EmptyStatement{}
	case 1:
		return repl[0]
	default:
		return &BlockStatement{Body: repl}
	}
}

// rw runs the expression callback over e after rewriting its children.
func (r *rewriter) rw(e Expression) Expression {
	if e == nil {
		return nil
	}
	r.walkExpr(e)
	if r.expr != nil {
		if out := r.expr(e); out != nil {
			return out
		}
	}
	return e
}

// target rewrites the readable sub-parts of an assignment/update target
// without ever replacing the target itself: for `a[i] = v`, a and i are
// value references, but the member expression is a binding position.
func (r *rewriter) target(e Expression) {
	if m, ok := e.(*MemberExpression); ok {
		m.Object = r.rw(m.Object)
		if m.Computed {
			m.Property = r.rw(m.Property)
		}
	}
}

func (r *rewriter) walkStmt(s Statement) {
	switch n := s.(type) {
	case *ExpressionStatement:
		n.Expression = r.rw(n.Expression)
	case *BlockStatement:
		n.Body = r.stmtList(n.Body)
	case *VariableDeclaration:
		for _, d := range n.Declarations {
			if d.Init != nil {
				d.Init = r.rw(d.Init)
			}
		}
	case *FunctionDeclaration:
		n.Body.Body = r.stmtList(n.Body.Body)
	case *ReturnStatement:
		if n.Argument != nil {
			n.Argument = r.rw(n.Argument)
		}
	case *IfStatement:
		n.Test = r.rw(n.Test)
		n.Consequent = r.single(n.Consequent)
		if n.Alternate != nil {
			n.Alternate = r.single(n.Alternate)
		}
	case *ForStatement:
		switch init := n.Init.(type) {
		case *VariableDeclaration:
			r.walkStmt(init)
		case Expression:
			n.Init = r.rw(init)
		}
		if n.Test != nil {
			n.Test = r.rw(n.Test)
		}
		if n.Update != nil {
			n.Update = r.rw(n.Update)
		}
		n.Body = r.single(n.Body)
	case *ForInStatement:
		switch left := n.Left.(type) {
		case *VariableDeclaration:
			r.walkStmt(left)
		case Expression:
			r.target(left)
		}
		n.Right = r.rw(n.Right)
		n.Body = r.single(n.Body)
	case *WhileStatement:
		n.Test = r.rw(n.Test)
		n.Body = r.single(n.Body)
	case *DoWhileStatement:
		n.Body = r.single(n.Body)
		n.Test = r.rw(n.Test)
	case *LabeledStatement:
		n.Body = r.single(n.Body)
	case *SwitchStatement:
		n.Discriminant = r.rw(n.Discriminant)
		for _, c := range n.Cases {
			if c.Test != nil {
				c.Test = r.rw(c.Test)
			}
			c.Consequent = r.stmtList(c.Consequent)
		}
	case *ThrowStatement:
		n.Argument = r.rw(n.Argument)
	case *TryStatement:
		n.Block.Body = r.stmtList(n.Block.Body)
		if n.Handler != nil {
			n.Handler.Body.Body = r.stmtList(n.Handler.Body.Body)
		}
		if n.Finalizer != nil {
			n.Finalizer.Body = r.stmtList(n.Finalizer.Body)
		}
	case *WithStatement:
		n.Object = r.rw(n.Object)
		n.Body = r.single(n.Body)
	}
}

func (r *rewriter) walkExpr(e Expression) {
	switch n := e.(type) {
	case *ArrayExpression:
		for i, el := range n.Elements {
			if el != nil {
				n.Elements[i] = r.rw(el)
			}
		}
	case *ObjectExpression:
		for _, p := range n.Properties {
			if p.Computed {
				p.Key = r.rw(p.Key)
			}
			p.Value = r.rw(p.Value)
		}
	case *FunctionExpression:
		n.Body.Body = r.stmtList(n.Body.Body)
	case *UnaryExpression:
		if n.Operator == "delete" {
			// The operand is an erasure target, not a value read.
			r.target(n.Argument)
			return
		}
		n.Argument = r.rw(n.Argument)
	case *UpdateExpression:
		r.target(n.Argument)
	case *BinaryExpression:
		n.Left = r.rw(n.Left)
		n.Right = r.rw(n.Right)
	case *LogicalExpression:
		n.Left = r.rw(n.Left)
		n.Right = r.rw(n.Right)
	case *AssignmentExpression:
		r.target(n.Left)
		n.Right = r.rw(n.Right)
	case *ConditionalExpression:
		n.Test = r.rw(n.Test)
		n.Consequent = r.rw(n.Consequent)
		n.Alternate = r.rw(n.Alternate)
	case *CallExpression:
		n.Callee = r.rw(n.Callee)
		for i, a := range n.Arguments {
			n.Arguments[i] = r.rw(a)
		}
	case *NewExpression:
		n.Callee = r.rw(n.Callee)
		for i, a := range n.Arguments {
			n.Arguments[i] = r.rw(a)
		}
	case *MemberExpression:
		n.Object = r.rw(n.Object)
		if n.Computed {
			n.Property = r.rw(n.Property)
		}
	case *SequenceExpression:
		for i, x := range n.Expressions {
			n.Expressions[i] = r.rw(x)
		}
	}
}
