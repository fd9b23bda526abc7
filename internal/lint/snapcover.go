package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Snapcover proves snapshot completeness. Every struct type with a sync
// method — a method named Sync or sync taking the codec stream
// (Config.CodecStreamType) — must account for each of its fields in one
// of three ways, or the build fails:
//
//  1. referenced by the sync method or a function it (transitively)
//     calls, or by a restore constructor — a function other than a sync
//     method that calls the sync method directly, building the object,
//     rebinding its callbacks, and registering it around the overlay;
//  2. function-valued (pre-bound callbacks, clock sources, hook lists): a
//     function value has no serializable identity and can only be rebound
//     at construction, so it is exempt implicitly;
//  3. annotated on its declaration line: //acclint:ignore snapcover
//     <reason>.
//
// A field that is none of these is invisible to snapshots: a fork or a
// warm-started sweep silently diverges from the cold run the first time
// the field matters. Because one sync method runs in both directions,
// a referenced field is saved and restored by the same statement; there
// is no second half to drift out of step.
type Snapcover struct{}

// Name implements Checker.
func (Snapcover) Name() string { return "snapcover" }

// Rev is the audit revision for //acclint:ignore snapcover@rev pins.
func (Snapcover) Rev() int { return 1 }

// coveredType is one (struct type, sync method) obligation.
type coveredType struct {
	obj    *types.TypeName
	st     *types.Struct
	syncFn *types.Func
}

// Check implements Checker.
func (Snapcover) Check(prog *Program, cfg *Config) []Diagnostic {
	if cfg.CodecStreamType == "" {
		return nil
	}
	order := declFuncs(prog)
	nodes := make(map[*types.Func]*funcNode, len(order))
	for _, n := range order {
		nodes[n.fn] = n
	}
	covered := syncedTypes(order, cfg.CodecStreamType)
	isSync := map[*types.Func]bool{}
	for _, ct := range covered {
		isSync[ct.syncFn] = true
	}
	// callers[sync] are the restore constructors of a sync method: the
	// functions other than sync methods that call it directly.
	callers := map[*types.Func][]*funcNode{}
	for _, n := range order {
		if isSync[n.fn] {
			continue
		}
		seen := map[*types.Func]bool{}
		for _, callee := range calleesOf(n) {
			if isSync[callee] && !seen[callee] {
				seen[callee] = true
				callers[callee] = append(callers[callee], n)
			}
		}
	}

	var diags []Diagnostic
	for _, ct := range covered {
		fields := map[*types.Var]bool{}
		for i := 0; i < ct.st.NumFields(); i++ {
			fields[ct.st.Field(i)] = true
		}
		referenced := map[*types.Var]bool{}
		for _, n := range append(reachableFuncs(nodes, order, ct.syncFn), callers[ct.syncFn]...) {
			markFieldRefs(n, fields, referenced)
		}
		for i := 0; i < ct.st.NumFields(); i++ {
			f := ct.st.Field(i)
			if f.Name() == "_" || referenced[f] || funcValued(f.Type()) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:   prog.Fset.Position(f.Pos()),
				Check: "snapcover",
				Msg: fmt.Sprintf(
					"field %s.%s.%s is not referenced by %s or by a restore constructor calling it — snapshots silently drop it; sync it, rebuild it on restore, or annotate the field with //acclint:ignore snapcover <reason>",
					ct.obj.Pkg().Name(), ct.obj.Name(), f.Name(), shortFuncName(ct.syncFn)),
			})
		}
	}
	return diags
}

// funcValued reports whether a field type holds function values (directly
// or as the element type of slices, arrays, maps, or pointers). Function
// values have no serializable identity — they can only be rebound at
// construction — so snapcover exempts them implicitly rather than demand
// an annotation that could never be satisfied by saving.
func funcValued(t types.Type) bool {
	for {
		switch u := t.Underlying().(type) {
		case *types.Signature:
			return true
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return false
		}
	}
}

// syncedTypes enumerates the (type, sync method) obligations: every
// method named Sync or sync on a named struct type with a parameter of
// the codec stream type.
func syncedTypes(order []*funcNode, streamType string) []coveredType {
	var out []coveredType
	for _, n := range order {
		sig, _ := n.fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil || (n.fn.Name() != "Sync" && n.fn.Name() != "sync") {
			continue
		}
		takesStream := false
		for i := 0; i < sig.Params().Len(); i++ {
			takesStream = takesStream || namedKey(sig.Params().At(i).Type()) == streamType
		}
		if !takesStream {
			continue
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			out = append(out, coveredType{obj: named.Obj(), st: st, syncFn: n.fn})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].obj.Pos() < out[j].obj.Pos() })
	return out
}

// calleesOf returns the static callees of every call in n's body,
// function literals included.
func calleesOf(n *funcNode) []*types.Func {
	var out []*types.Func
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if callee := calleeFunc(n.pkg.Info, call); callee != nil {
				out = append(out, callee)
			}
		}
		return true
	})
	return out
}

// reachableFuncs walks the static call graph from start and returns the
// in-program functions reached, in deterministic order.
func reachableFuncs(nodes map[*types.Func]*funcNode, order []*funcNode, start *types.Func) []*funcNode {
	seen := map[*types.Func]bool{start: true}
	queue := []*types.Func{start}
	for len(queue) > 0 {
		n := nodes[queue[0]]
		queue = queue[1:]
		if n == nil {
			continue
		}
		for _, callee := range calleesOf(n) {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	var out []*funcNode
	for _, n := range order {
		if seen[n.fn] {
			out = append(out, n)
		}
	}
	return out
}

// markFieldRefs marks every field of the covered struct that the function
// body mentions at all: as a selector (x.f) or as a composite-literal key
// (T{f: v}).
func markFieldRefs(n *funcNode, fields map[*types.Var]bool, mark map[*types.Var]bool) {
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			if v, ok := n.pkg.Info.Uses[id].(*types.Var); ok && fields[v] {
				mark[v] = true
			}
		}
		return true
	})
}
