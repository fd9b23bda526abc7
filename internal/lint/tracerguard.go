package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// TracerGuard proves the zero-overhead-when-disabled tracing contract:
// every exported method on the types named in Config.TracerTypes must
// begin with the nil-receiver guard, because the engine calls hooks on a
// possibly-nil *Tracer from the per-packet path and relies on the guard
// to make the disabled case a branch-and-return with no allocation.
//
// Two guard forms are accepted:
//
//	func (t *Tracer) Hook(...)      { if t == nil { return } ... }
//	func (t *Tracer) Enabled() bool { return t != nil }
//
// — the first statement is either the literal guard (an if with no init,
// no else, and a body that only returns), or the whole body is a single
// return whose expression is a nil comparison of the receiver.
type TracerGuard struct{}

// Name implements Checker.
func (TracerGuard) Name() string { return "tracerguard" }

// Rev is the audit revision for //acclint:ignore tracerguard@rev pins.
func (TracerGuard) Rev() int { return 1 }

// Check implements Checker.
func (TracerGuard) Check(prog *Program, cfg *Config) []Diagnostic {
	diags := unresolved(prog, "tracerguard", "TracerTypes", cfg.TracerTypes, programNames(prog).types)
	tracerTypes := stringSet(cfg.TracerTypes)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				pkgPath, typeName, ok := recvNamed(fn)
				if !ok || !tracerTypes[typeKey(pkgPath, typeName)] {
					continue
				}
				recvName := receiverName(fd)
				if recvName == "" || recvName == "_" {
					diags = append(diags, Diagnostic{
						Pos:   prog.Fset.Position(fd.Pos()),
						Check: "tracerguard",
						Msg: fmt.Sprintf("exported %s.%s has no named receiver: name it and begin with the nil-receiver guard",
							typeName, fd.Name.Name),
					})
					continue
				}
				if nilGuardFirst(pkg.Info, fd, recvName) || nilComparisonBody(pkg.Info, fd, recvName) {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:   prog.Fset.Position(fd.Pos()),
					Check: "tracerguard",
					Msg: fmt.Sprintf("exported %s.%s must begin with the nil-receiver guard `if %s == nil { return ... }`: hooks run on a possibly-nil tracer from the per-packet path",
						typeName, fd.Name.Name, recvName),
				})
			}
		}
	}
	return diags
}

// receiverName returns the receiver identifier of a method declaration.
func receiverName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// nilGuardFirst accepts `if recv == nil { return ... }` as the first
// statement (no init clause, no else, body containing only returns).
func nilGuardFirst(info *types.Info, fd *ast.FuncDecl, recvName string) bool {
	if len(fd.Body.List) == 0 {
		return false
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil {
		return false
	}
	if !isRecvNilComparison(info, ifs.Cond, recvName, token.EQL) {
		return false
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	for _, st := range ifs.Body.List {
		if _, isRet := st.(*ast.ReturnStmt); !isRet {
			return false
		}
	}
	return true
}

// nilComparisonBody accepts a body that is a single
// `return recv == nil` / `return recv != nil`.
func nilComparisonBody(info *types.Info, fd *ast.FuncDecl, recvName string) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	return isRecvNilComparison(info, ret.Results[0], recvName, token.EQL) ||
		isRecvNilComparison(info, ret.Results[0], recvName, token.NEQ)
}

// isRecvNilComparison matches `recv <op> nil` or `nil <op> recv`.
func isRecvNilComparison(info *types.Info, e ast.Expr, recvName string, op token.Token) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return false
	}
	return (isIdentNamed(be.X, recvName) && isNilIdent(info, be.Y)) ||
		(isNilIdent(info, be.X) && isIdentNamed(be.Y, recvName))
}
