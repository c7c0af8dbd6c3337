package lint

// versionstamp machine-checks the cache-coherence discipline PR 4
// established after fixing stale-result bugs by hand: every artifact
// that outlives a single query evaluation (plan-cache entries,
// statistics memos) is stamped with the store mutation
// version it was computed against, and every hit validates the stamp.
// The reformulation engine's exactness guarantee (the paper's Sec. 3
// certain-answer semantics) silently breaks if any of these caches
// serves results from an older database state, so the discipline is
// promoted from convention to machine-checked invariant.
//
// Cache types opt in with an annotation on their type declaration:
//
//	//lint:cache <name>
//	type Cache struct { ... }
//
// The analyzer finds the map-typed storage fields reachable from the
// annotated struct (through same-package named structs, arrays, slices
// and pointers — e.g. Cache → shards [16]shard → shard.m) and checks,
// within the package:
//
//   - WRITERS: a function that stores into a cache map (m[k] = v) must
//     observe a version stamp on every path to the store — a call to a
//     method named Version, or a read of a variable/field/selector
//     whose name contains "version" or "stamp" (case-insensitive).
//     A function taking a parameter whose struct type itself declares a
//     version/stamp field is exempt: the stamp travels inside the
//     value (plancache.Put receives a pre-stamped *Entry).
//   - READERS: a function that looks a cache map up (v := m[k]) must
//     compare versions somewhere — an ==/!= whose operand mentions a
//     version/stamp name or calls a Version method. delete(), len()
//     and range are maintenance, not hit paths, and are exempt.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var VersionStamp = &Analyzer{
	Name: "versionstamp",
	Doc: "report //lint:cache annotated cache writes that do not observe a " +
		"version stamp on every path, and cache hits that never compare one",
	Run: runVersionStamp,
}

const cacheDirective = "//lint:cache"

func runVersionStamp(pass *Pass) {
	info := pass.TypesInfo()

	// Collect annotated cache types and their reachable map fields.
	storage := make(map[*types.Var]string) // map-typed field -> cache name
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				name, ok := cacheAnnotation(gd.Doc, ts.Doc)
				if !ok {
					continue
				}
				if name == "" {
					name = ts.Name.Name
				}
				obj, ok := info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				collectCacheMaps(obj.Type(), name, storage, make(map[types.Type]bool))
			}
		}
	}
	if len(storage) == 0 {
		return
	}

	for _, fb := range funcBodies(pass.Pkg) {
		checkCacheAccess(pass, fb, storage)
	}
}

// cacheAnnotation extracts the cache name from a //lint:cache directive
// in either the GenDecl or TypeSpec doc comment.
func cacheAnnotation(docs ...*ast.CommentGroup) (name string, ok bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			rest, found := strings.CutPrefix(c.Text, cacheDirective)
			if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// collectCacheMaps walks the type graph under an annotated cache type,
// registering every map-typed struct field reachable through
// same-package named types, pointers, arrays and slices.
func collectCacheMaps(t types.Type, cache string, storage map[*types.Var]string, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			ft := f.Type()
			if _, isMap := ft.Underlying().(*types.Map); isMap {
				storage[f] = cache
				continue
			}
			collectCacheMaps(ft, cache, storage, seen)
		}
	case *types.Pointer:
		collectCacheMaps(u.Elem(), cache, storage, seen)
	case *types.Array:
		collectCacheMaps(u.Elem(), cache, storage, seen)
	case *types.Slice:
		collectCacheMaps(u.Elem(), cache, storage, seen)
	}
}

// versionish reports whether a name smells like a version stamp.
func versionish(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "version") || strings.Contains(l, "stamp")
}

// cacheFieldOf resolves the base of an index expression to an annotated
// cache map field.
func cacheFieldOf(info *types.Info, storage map[*types.Var]string, base ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(base).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok {
		return "", false
	}
	cache, tracked := storage[v]
	return cache, tracked
}

// mentionsVersion reports whether the node reads a version-ish name or
// calls a method named Version.
func mentionsVersion(e ast.Node) bool {
	found := false
	inspectShallow(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if versionish(n.Name) {
				found = true
			}
		case *ast.CallExpr:
			if _, name, ok := methodCall(n); ok && name == "Version" {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasStampedParam reports whether the function signature carries a
// parameter whose (pointer-stripped) struct type declares a version-ish
// field — the pre-stamped-value escape hatch.
func hasStampedParam(info *types.Info, fb funcBody) bool {
	var ftype *ast.FuncType
	if fb.lit != nil {
		ftype = fb.lit.Type
	} else {
		ftype = fb.decl.Type
	}
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if versionish(st.Field(i).Name()) {
				return true
			}
		}
	}
	return false
}

// checkCacheAccess applies the writer and reader rules to one function.
func checkCacheAccess(pass *Pass, fb funcBody, storage map[*types.Var]string) {
	info := pass.TypesInfo()
	body := fb.body

	// Find the cache writes (index expressions on the LHS of an
	// assignment) and cache reads (any other index expression) over
	// annotated map fields.
	type site struct {
		pos   token.Pos
		cache string
	}
	var writes, reads []site
	lhsIndex := make(map[*ast.IndexExpr]bool)
	inspectShallow(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					lhsIndex[ix] = true
				}
			}
		}
		return true
	})
	inspectShallow(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		cache, tracked := cacheFieldOf(info, storage, ix.X)
		if !tracked {
			return true
		}
		if lhsIndex[ix] {
			writes = append(writes, site{pos: ix.Pos(), cache: cache})
		} else {
			reads = append(reads, site{pos: ix.Pos(), cache: cache})
		}
		return true
	})
	if len(writes) == 0 && len(reads) == 0 {
		return
	}

	// The pre-stamped-value escape hatch exempts the whole function:
	// both the write and the lookup that precedes an insert-or-replace
	// are part of installing a value that carries its own stamp.
	if hasStampedParam(info, fb) {
		return
	}

	// WRITER rule: version observed on every path to the write.
	if len(writes) > 0 {
		const versionFact = 0
		transfer := func(n ast.Node, fs *FactSet) {
			if mentionsVersion(n) {
				fs.Add(versionFact)
			}
		}
		g := pass.CFG(body)
		flow := solve(g, &Problem{Join: JoinIntersect, Transfer: transfer})
		reported := make(map[token.Pos]bool)
		flow.Walk(func(n ast.Node, before *FactSet) {
			// Version reads inside the same statement as the write
			// count (the transfer applies whole-node), so check the
			// state AFTER this node, not before.
			after := before.clone()
			transfer(n, after)
			inspectShallow(n, func(m ast.Node) bool {
				ix, ok := m.(*ast.IndexExpr)
				if !ok {
					return true
				}
				cache, tracked := cacheFieldOf(info, storage, ix.X)
				if !tracked || !lhsIndex[ix] || reported[ix.Pos()] {
					return true
				}
				if !after.Has(versionFact) {
					reported[ix.Pos()] = true
					pass.Reportf(ix.Pos(), "write to //lint:cache %q does not observe a version stamp on every path; read Version() (or a version/stamp field) before populating the entry",
						cache)
				}
				return true
			})
		})
	}

	// READER rule: a version comparison somewhere in the function.
	if len(reads) > 0 {
		comparesVersion := false
		inspectShallow(body, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if mentionsVersion(be.X) || mentionsVersion(be.Y) {
				comparesVersion = true
			}
			return !comparesVersion
		})
		if !comparesVersion {
			for _, r := range reads {
				pass.Reportf(r.pos, "hit path reads //lint:cache %q but the function never compares a version stamp; stale entries can leak across mutations",
					r.cache)
			}
		}
	}
}
