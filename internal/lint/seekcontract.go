package lint

import (
	"go/ast"
	"go/types"
)

// SeekContract enforces the SampleIterator contract (DESIGN.md §4.8):
//
//  1. Any type declaring the contract's distinctive Seek(int64) bool
//     method must implement the complete interface — Next() bool,
//     At() (int64, float64), Err() error — with exact signatures.
//  2. A type declaring Next/At/Err in the contract shapes without a
//     conforming Seek is a partial implementation and is flagged too.
//  3. Seek(int64) bool may only be declared in internal/chunkenc. Other
//     packages compose the chunkenc adapters (ChunkIterator,
//     QueryIterator, SliceIterator, MergeIterator) instead. This is what
//     lets the build run full go vet — stdmethods included — on every
//     package but internal/chunkenc, whose Seek the vet exemption covers.
var SeekContract = &Analyzer{
	Name: "seekcontract",
	Doc:  "SampleIterator implementations must be complete, exactly typed, and live in internal/chunkenc",
	Run:  perPackage(runSeekContract),
}

// contract method shapes.
var (
	i64    = types.Typ[types.Int64]
	f64    = types.Typ[types.Float64]
	boolT  = types.Typ[types.Bool]
	errT   = types.Universe.Lookup("error").Type()
	wantIt = map[string]struct{ params, results []types.Type }{
		"Next": {nil, []types.Type{boolT}},
		"Seek": {[]types.Type{i64}, []types.Type{boolT}},
		"At":   {nil, []types.Type{i64, f64}},
		"Err":  {nil, []types.Type{errT}},
	}
)

func runSeekContract(pass *ModulePass, pkg *Package) {
	// Collect method declarations grouped by receiver named type.
	type methodDecl struct {
		decl *ast.FuncDecl
		sig  *types.Signature
	}
	methods := map[*types.TypeName]map[string]methodDecl{}
	var order []*types.TypeName
	pkg.Inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Recv == nil {
			return !ok // function bodies hold no declarations
		}
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			return true
		}
		sig := obj.Type().(*types.Signature)
		named := derefNamed(sig.Recv().Type())
		if named == nil {
			return true
		}
		tn := named.Obj()
		if methods[tn] == nil {
			methods[tn] = map[string]methodDecl{}
			order = append(order, tn)
		}
		methods[tn][fd.Name.Name] = methodDecl{fd, sig}
		return false
	})

	inChunkenc := pkg.InScope("internal/chunkenc")
	for _, tn := range order {
		decls := methods[tn]
		seek, hasSeek := decls["Seek"]
		contractSeek := hasSeek && sigIs(seek.sig, wantIt["Seek"].params, wantIt["Seek"].results)

		// Does the type declare the Next/At/Err trio in contract shape?
		trio := 0
		for _, name := range []string{"Next", "At", "Err"} {
			if d, ok := decls[name]; ok && sigIs(d.sig, wantIt[name].params, wantIt[name].results) {
				trio++
			}
		}

		if !contractSeek && trio < 3 {
			continue // not claiming the SampleIterator contract
		}

		// The full method set (pointer receiver) must satisfy every
		// contract method exactly — embedding counts.
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		var missing []string
		for _, name := range []string{"Next", "Seek", "At", "Err"} {
			want := wantIt[name]
			sel := ms.Lookup(tn.Pkg(), name)
			if sel == nil || !sigIs(sel.Obj().Type().(*types.Signature), want.params, want.results) {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			pos := tn.Pos()
			if hasSeek {
				pos = seek.decl.Name.Pos()
			}
			pass.Reportf(pos, "type %s claims the chunkenc.SampleIterator contract but %s missing or mismatched (want Next() bool, Seek(int64) bool, At() (int64, float64), Err() error)", tn.Name(), joinAnd(missing))
			continue
		}

		if contractSeek && !inChunkenc {
			pass.Reportf(seek.decl.Name.Pos(), "Seek(int64) bool declared outside internal/chunkenc; compose chunkenc adapters (ChunkIterator, QueryIterator, ...) instead so the go vet stdmethods exemption stays scoped to internal/chunkenc")
		}
	}
}

func joinAnd(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0] + " is"
	}
	out := names[0]
	for _, n := range names[1 : len(names)-1] {
		out += ", " + n
	}
	return out + " and " + names[len(names)-1] + " are"
}
