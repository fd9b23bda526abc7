package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// Barriermut enforces the psim OnBarrier mutation contract: state owned
// by the barrier coordinator (Config.BarrierOwnedTypes — the parallel
// engine, the hybrid overlay, the admission plan and its applied view)
// may only be mutated while the shards are quiescent. Shard-window code —
// transport callbacks, fault closures, anything running inside a window —
// must defer its effects, either through the sanctioned per-flow slot
// fields (Config.BarrierSlotFields: disjoint index writes drained at the
// barrier) or by running inside a barrier context.
//
// A write to a field of an owned type is allowed when one of:
//
//   - it is an element write into a declared slot field (res.End[i] = t):
//     per-flow slots are the deferral mechanism, legal anywhere;
//   - it occurs in a named function statically reachable from a barrier
//     root (Config.BarrierRoots: the coordinator loop, build/apply/plan
//     construction, snapshot save/restore, registered OnBarrier hooks) —
//     and NOT inside a function literal, because closures defined in
//     barrier code routinely escape into shard windows;
//   - the enclosing named function is a method on the owned type itself:
//     a type's own methods are its invariant domain, and the checker
//     polices foreign writers.
//
// Calls to the coordinator's known-mutating methods
// (Config.BarrierMutMethods, e.g. hybrid.Engine.PacketDone) are held to
// the same contexts — the PR 8 race was exactly a mid-window PacketDone
// from a shard callback, legal-looking because the mutation hid behind a
// method call.
type Barriermut struct{}

// Name implements Checker.
func (Barriermut) Name() string { return "barriermut" }

// Rev is the audit revision for //acclint:ignore barriermut@rev pins.
func (Barriermut) Rev() int { return 1 }

// Check implements Checker.
func (b Barriermut) Check(prog *Program, cfg *Config) []Diagnostic {
	names := programNames(prog)
	diags := unresolved(prog, "barriermut", "BarrierOwnedTypes", cfg.BarrierOwnedTypes, names.types)
	diags = append(diags, unresolved(prog, "barriermut", "BarrierSlotFields", cfg.BarrierSlotFields, names.fields)...)
	diags = append(diags, unresolved(prog, "barriermut", "BarrierRoots", cfg.BarrierRoots, names.funcs)...)
	diags = append(diags, unresolved(prog, "barriermut", "BarrierMutMethods", cfg.BarrierMutMethods, names.funcs)...)
	if len(cfg.BarrierOwnedTypes) == 0 {
		return diags
	}
	owned := stringSet(cfg.BarrierOwnedTypes)
	slots := stringSet(cfg.BarrierSlotFields)
	mutMethods := stringSet(cfg.BarrierMutMethods)

	order := declFuncs(prog)
	index := map[*types.Func]*funcNode{}
	for _, n := range order {
		index[n.fn] = n
	}

	// ownedField maps each field object of an owned struct type to its
	// "importpath.Type.Field" key (resolving selections through
	// embedding to the declaring struct).
	ownedField := map[*types.Var]string{}
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !owned[typeKey(pkg.ImportPath, tn.Name())] {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				ownedField[f] = typeKey(pkg.ImportPath, tn.Name()) + "." + f.Name()
			}
		}
	}

	// Barrier reachability over named functions only: calls made inside a
	// function literal do not execute when their definer runs, so they do
	// not extend the barrier context.
	roots := stringSet(cfg.BarrierRoots)
	reach := map[*types.Func]bool{}
	var queue []*types.Func
	for _, n := range order {
		if roots[funcMatchKey(n.fn)] {
			reach[n.fn] = true
			queue = append(queue, n.fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		n := index[fn]
		if n == nil {
			continue
		}
		var scan func(root ast.Node)
		scan = func(root ast.Node) {
			ast.Inspect(root, func(node ast.Node) bool {
				if _, ok := node.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := node.(*ast.CallExpr); ok {
					if callee := calleeFunc(n.pkg.Info, call); callee != nil && !reach[callee] {
						reach[callee] = true
						queue = append(queue, callee)
					}
				}
				return true
			})
		}
		scan(n.decl.Body)
	}

	recvOwnedKey := func(fn *types.Func) string {
		if pkgPath, typeName, ok := recvNamed(fn); ok {
			k := typeKey(pkgPath, typeName)
			if owned[k] {
				return k
			}
		}
		return ""
	}

	for _, n := range order {
		info := n.pkg.Info
		file := prog.Fset.Position(n.decl.Pos()).Filename
		if cfg.allowed("barriermut", n.pkg.ImportPath, filepath.Base(file), n.fn.Name()) {
			continue
		}
		inBarrier := reach[n.fn]
		recvKey := recvOwnedKey(n.fn)

		checkWrite := func(lhs ast.Expr, inLit bool) {
			fv, indexed := writeTarget(info, lhs)
			if fv == nil {
				return
			}
			key, ok := ownedField[fv]
			if !ok {
				return
			}
			if indexed && slots[key] {
				return // per-flow slot write: the sanctioned deferral
			}
			if !inLit && (inBarrier || recvKey != "") {
				return
			}
			where := "outside any barrier context"
			if inLit {
				where = "inside a function literal (closures escape into shard windows)"
			}
			diags = append(diags, Diagnostic{
				Pos:   prog.Fset.Position(lhs.Pos()),
				Check: "barriermut",
				Msg: fmt.Sprintf(
					"write to coordinator-owned %s %s: shard-window code must defer through a per-flow slot field or an OnBarrier hook",
					key, where),
			})
		}
		checkCall := func(call *ast.CallExpr, inLit bool) {
			callee := calleeFunc(info, call)
			if callee == nil || !mutMethods[funcMatchKey(callee)] {
				return
			}
			if !inLit && (inBarrier || recvKey != "") {
				return
			}
			where := "outside any barrier context"
			if inLit {
				where = "inside a function literal (closures escape into shard windows)"
			}
			diags = append(diags, Diagnostic{
				Pos:   prog.Fset.Position(call.Pos()),
				Check: "barriermut",
				Msg: fmt.Sprintf(
					"call to barrier-only method %s %s: defer through a per-flow slot field drained at the barrier",
					shortFuncName(callee), where),
			})
		}

		var scan func(root ast.Node, inLit bool)
		scan = func(root ast.Node, inLit bool) {
			ast.Inspect(root, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.FuncLit:
					scan(node.Body, true)
					return false
				case *ast.AssignStmt:
					for _, lhs := range node.Lhs {
						checkWrite(lhs, inLit)
					}
				case *ast.IncDecStmt:
					checkWrite(node.X, inLit)
				case *ast.CallExpr:
					checkCall(node, inLit)
				}
				return true
			})
		}
		scan(n.decl.Body, false)
	}
	return diags
}

// writeTarget resolves an assignment target to the owned field it writes,
// reporting whether the field itself was indexed (an element write).
// Writes through plain pointers or locals resolve to nil.
func writeTarget(info *types.Info, e ast.Expr) (*types.Var, bool) {
	indexed := false
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			indexed = true
			e = v.X
		case *ast.SelectorExpr:
			if s, ok := info.Selections[v]; ok && s.Kind() == types.FieldVal {
				if fv, ok := s.Obj().(*types.Var); ok {
					return fv, indexed
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
}
