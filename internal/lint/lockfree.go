package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockfreeAnalyzer enforces the snapshot read-path contract: a function
// annotated //wavedag:lockfree must answer from immutable published
// state — it must not acquire a lock (or otherwise block: channel
// operations, WaitGroup.Wait, select), must not reach an in-module
// function that is not itself annotated lock-free (transitive
// closure), and must not contain allocating constructs (make/new,
// append, slice/map composite literals, address-taken composite
// literals, closures). Plain value struct literals are permitted: they
// stay on the stack. Calls into the standard library are trusted
// (sync lock primitives excepted) — error construction on failure
// paths is the intended use. The one escape hatch is
// //wavedag:allow-alloc on the function, which waives the allocation
// checks (grow paths, translation buffers); nothing waives the blocking
// and callee checks.
var lockfreeAnalyzer = &Analyzer{
	Name: "lockfree",
	Doc:  "functions marked //wavedag:lockfree must not block, allocate, or call unannotated in-module code",
	Run:  runLockfree,
}

func runLockfree(c *Corpus, report func(pos token.Pos, format string, args ...any)) {
	for _, fi := range c.decls {
		if fi.Has(DirLockfree) && fi.Decl.Body != nil {
			checkLockfreeBody(c, fi, report)
		}
	}
}

func checkLockfreeBody(c *Corpus, fi *FuncInfo, report func(pos token.Pos, format string, args ...any)) {
	allowAlloc := fi.Has(DirAllowAlloc)
	info := fi.Pkg.Info
	name := fi.Obj.Name()

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkLockfreeCall(c, info, name, x, allowAlloc, report)
		case *ast.CompositeLit:
			if allowAlloc {
				return true
			}
			if tv, ok := info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(x.Pos(), "%s is lock-free but builds a %s literal (heap allocation)", name, tv.Type.Underlying().String())
				}
			}
		case *ast.UnaryExpr:
			switch x.Op {
			case token.AND:
				if _, isLit := unparen(x.X).(*ast.CompositeLit); isLit && !allowAlloc {
					report(x.Pos(), "%s is lock-free but takes the address of a composite literal (heap allocation)", name)
				}
			case token.ARROW:
				report(x.Pos(), "%s is lock-free but receives from a channel", name)
			}
		case *ast.FuncLit:
			if !allowAlloc {
				report(x.Pos(), "%s is lock-free but declares a closure (heap allocation)", name)
			}
			return false // do not descend: the closure runs elsewhere
		case *ast.SendStmt:
			report(x.Pos(), "%s is lock-free but sends on a channel", name)
		case *ast.SelectStmt:
			report(x.Pos(), "%s is lock-free but contains a select statement", name)
		case *ast.GoStmt:
			report(x.Pos(), "%s is lock-free but starts a goroutine", name)
		}
		return true
	})
}

func checkLockfreeCall(c *Corpus, info *types.Info, name string, call *ast.CallExpr, allowAlloc bool, report func(pos token.Pos, format string, args ...any)) {
	if isConversion(info, call) {
		return
	}
	switch builtinName(info, call) {
	case "":
		// not a builtin; fall through to callee checks
	case "make", "new":
		if !allowAlloc {
			report(call.Pos(), "%s is lock-free but calls %s (heap allocation)", name, builtinName(info, call))
		}
		return
	case "append":
		if !allowAlloc {
			report(call.Pos(), "%s is lock-free but calls append (potential growth allocation)", name)
		}
		return
	default:
		return // len, cap, copy, panic, clear, ... are fine
	}

	if isLockCall(info, call) {
		report(call.Pos(), "%s is lock-free but acquires a sync lock primitive", name)
		return
	}
	if isInterfaceCall(info, call) {
		report(call.Pos(), "%s is lock-free but makes a dynamic interface call (callee unverifiable)", name)
		return
	}
	f := callee(info, call)
	if f == nil {
		// Calling a func-typed value: the target is unverifiable.
		report(call.Pos(), "%s is lock-free but calls through a function value (callee unverifiable)", name)
		return
	}
	if !c.inModule(f) {
		return // standard library (non-lock) calls are trusted
	}
	target := c.FuncFor(f)
	if target == nil || !target.Has(DirLockfree) {
		report(call.Pos(), "%s is lock-free but calls in-module %s, which is not marked //wavedag:lockfree", name, f.Name())
	}
}
