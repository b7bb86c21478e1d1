// Package billedaccess enforces the billing soundness invariant at the
// heart of the cost model: every source access a query performs must flow
// through a ledgered layer, so that measured cost equals modeled cost. A
// raw Backend.Sorted or Backend.Random call from framework or service
// code is invisible to the session's ledger — the optimizer then reasons
// about a cost the system is not actually paying, and every claim the
// repo makes about "cost" silently understates reality.
//
// The analyzer flags call sites of Sorted, Random (on any type
// implementing access.Backend), Page (on any access.Pager) and BatchRandom
// (on any type implementing access.BatchBackend) outside the ledgered
// packages — internal/access, internal/share, internal/fault. Forwarding
// is exempt: a call made inside a same-named method of a type that itself
// implements the interface is one composed backend delegating to another
// (the catalog's router, fault wrappers), not an unbilled access — the
// outermost wrapper is still driven through a session. Such a forwarder
// owes the stack two things in return. When what it forwards to is held as
// an interface, it must declare Unwrap() access.Backend, or everything
// access.As looks for below it — the sharing layer's planning discounts,
// the shard membership in the plan-cache key, cache eviction — silently
// disappears. And a wrapper that forwards Sorted must forward Page too:
// the session reads pages, so a wrapper without Page is read one entry per
// call through access.Pages' adapter, whatever the layers below it serve.
//
// Legitimate out-of-ledger traffic exists — cost calibration probes,
// readiness checks — and each
// such site carries `//topklint:allow billedaccess <reason>`, so the
// exceptions are enumerable: grep for the directive and you have the
// complete audit of unbilled access in the codebase.
package billedaccess

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "billedaccess",
	Doc:  "raw Backend.Sorted/Random, Pager.Page and BatchRandom calls outside the ledgered layers bypass cost accounting",
	Run:  run,
}

// exempt are the ledgered layers: packages whose job is to wrap raw
// accesses in accounting. internal/cluster is the distribution analogue:
// the coordinator's prefetch cursors and probe router forward shard
// accesses beneath the session, and what it surfaces upward is billed
// there — the scatter-gather oracle pins its ledger byte-identical to the
// unsharded backend's.
// internal/store joins for the same structural reason: the store IS a
// backend — its calibrator times raw Sorted/Random calls to measure the
// very cs and cr the ledger will charge (billing them would be circular),
// and its BatchRandom forwards through offset-sorted point reads beneath
// the interface. Query traffic still reaches the store only through an
// access.Session; the disk-vs-memory oracle pins the two ledgers
// byte-identical.
var exempt = map[string]bool{
	"repro/internal/access":  true,
	"repro/internal/share":   true,
	"repro/internal/fault":   true,
	"repro/internal/cluster": true,
	"repro/internal/store":   true,
}

func run(pass *analysis.Pass) error {
	if exempt[pass.Pkg.Path()] {
		return nil
	}
	backend := lookupIface(pass.Pkg, "repro/internal/access", "Backend")
	pager := lookupIface(pass.Pkg, "repro/internal/access", "Pager")
	batch := lookupIface(pass.Pkg, "repro/internal/access", "BatchBackend")
	if backend == nil && batch == nil {
		return nil // cannot name the interfaces, cannot hold a value of them
	}
	ifaceFor := func(method string) *types.Interface {
		switch method {
		case "Sorted", "Random":
			return backend
		case "Page":
			return pager
		case "BatchRandom":
			return batch
		}
		return nil
	}
	opaque := map[string]bool{} // forwarders already reported for lacking Unwrap
	// The forwarding wrappers' first Sorted forwarding calls, in file
	// order, and the wrappers that forward Page as well.
	type forward struct {
		wrapper string
		call    *ast.CallExpr
	}
	var sortedFwd []forward
	forwardsSorted := map[string]bool{}
	forwardsPage := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			self := receiverType(pass, fd)
			forwarder := implementsEither(self, backend, batch)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				iface := ifaceFor(sel.Sel.Name)
				if iface == nil {
					return true
				}
				recv := pass.TypesInfo.TypeOf(sel.X)
				if recv == nil || !implements(recv, iface) {
					return true
				}
				if forwarder && fd.Name.Name == sel.Sel.Name {
					// One composed backend delegating to another.
					switch name := baseName(self); {
					case sel.Sel.Name == "Page":
						forwardsPage[name] = true
					case sel.Sel.Name == "Sorted" && !forwardsSorted[name]:
						forwardsSorted[name] = true
						sortedFwd = append(sortedFwd, forward{name, call})
					}
					if types.IsInterface(recv) && !opaque[self.String()] && !hasMethod(self, pass.Pkg, "Unwrap") {
						opaque[self.String()] = true
						pass.Reportf(call.Pos(), "wrapper %s forwards to a backend it does not expose: without Unwrap() access.Backend the layers below it are invisible to access.As (declare it, or annotate //topklint:allow billedaccess <reason>)", self)
					}
					return true
				}
				pass.Reportf(call.Pos(), "unbilled %s access: a raw backend call bypasses the session ledger, so its cost never reaches the model (route it through access.Session, or annotate //topklint:allow billedaccess <reason>)", sel.Sel.Name)
				return true
			})
		}
	}
	for _, fw := range sortedFwd {
		if !forwardsPage[fw.wrapper] {
			pass.Reportf(fw.call.Pos(), "wrapper %s forwards Sorted but not Page: a session reads it one entry per call through access.Pages' adapter, whatever the layers below it serve (forward Page to the wrapped backend's pages, or annotate //topklint:allow billedaccess <reason>)", fw.wrapper)
		}
	}
	return nil
}

// receiverType returns the method's receiver type, or nil for plain
// functions.
func receiverType(pass *analysis.Pass, fd *ast.FuncDecl) types.Type {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
}

// baseName names a receiver type without its pointer: a wrapper's methods
// may mix value and pointer receivers.
func baseName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.String()
}

// hasMethod reports whether t (or *t) has a method of the given name.
func hasMethod(t types.Type, pkg *types.Package, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	_, ok := obj.(*types.Func)
	return ok
}

func implementsEither(t types.Type, a, b *types.Interface) bool {
	if t == nil {
		return false
	}
	return (a != nil && implements(t, a)) || (b != nil && implements(t, b))
}

// implements reports whether t (or *t) satisfies the interface.
func implements(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// lookupIface resolves an interface by package path and name through the
// transitive imports of the package under analysis.
func lookupIface(from *types.Package, path, name string) *types.Interface {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Interface
	find = func(p *types.Package) *types.Interface {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				return nil
			}
			iface, _ := tn.Type().Underlying().(*types.Interface)
			return iface
		}
		for _, imp := range p.Imports() {
			if r := find(imp); r != nil {
				return r
			}
		}
		return nil
	}
	return find(from)
}
