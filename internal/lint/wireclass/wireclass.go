// Package wireclass enforces exhaustive classification of the wire
// protocol's error codes and API keys.
//
// A new error code whose retriability is decided by a default arm is how a
// terminal error ends up silently retried (or a retriable one surfaced to
// callers); a new API key without a name or a body constructor cannot be
// labelled or decoded. The wire package states each of those once, in one
// table per enumeration, and this analyzer makes the tables exhaustive.
//
// In the package named "wire" (the one defining type ErrorCode):
//
//   - Every ErrorCode constant must be a key of the package-level
//     `errorCodes` table literal, which names it and classifies it as
//     retriable or not.
//   - Every APIKey constant must be a key of the package-level `apis` table
//     literal, which names it (the per-API metrics label) and constructs
//     its request body (the broker's decode dispatch).
//
// In any package that marks a type switch with a "//wireclass:dispatch"
// comment (the broker's request dispatch): the switch must have a case
// for every exported request type of the imported wire package — a type
// named *Request implementing wire.Message. A new API cannot be decoded
// without also being served.
package wireclass

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wireclass",
	Doc:  "every wire error code and API key must have an entry in its table, and dispatch switches must serve every request type",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "wire" && pass.Pkg.Scope().Lookup("ErrorCode") != nil {
		checkTable(pass, "ErrorCode", "errorCodes")
		checkTable(pass, "APIKey", "apis")
	}
	checkDispatchSwitches(pass)
	return nil
}

// ------------------------------------------------------------- wire side

// checkTable reports every constant of the named type that is not a key of
// the package-level table literal, or the type itself if there is no table.
func checkTable(pass *analysis.Pass, typeName, table string) {
	tn, _ := pass.Pkg.Scope().Lookup(typeName).(*types.TypeName)
	if tn == nil {
		return
	}
	keys := tableKeys(pass, table)
	if keys == nil {
		pass.Reportf(tn.Pos(), "package wire must give every %s an entry in a package-level `%s` table literal", typeName, table)
		return
	}
	for _, c := range constsOf(pass.Pkg.Scope(), tn) {
		if !keys[c] {
			pass.Reportf(c.Pos(), "wire.%s %s has no entry in the %s table", typeName, c.Name(), table)
		}
	}
}

// constsOf returns the package-level constants of the given named type,
// in declaration order.
func constsOf(scope *types.Scope, tn *types.TypeName) []*types.Const {
	var out []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && c.Type() == tn.Type() {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// tableKeys returns the constants used as keys in the package-level
// `var name = T{key: ...}` literal (an indexed array or a map), or nil if
// no such literal exists.
func tableKeys(pass *analysis.Pass, name string) map[types.Object]bool {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if id.Name != name || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					keys := map[types.Object]bool{}
					for _, elt := range cl.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && pass.Info.Uses[id] != nil {
								keys[pass.Info.Uses[id]] = true
							}
						}
					}
					return keys
				}
			}
		}
	}
	return nil
}

// --------------------------------------------------------- dispatch side

// checkDispatchSwitches verifies every type switch marked with a
// "//wireclass:dispatch" comment covers all request types of the
// imported wire package.
func checkDispatchSwitches(pass *analysis.Pass) {
	for _, f := range pass.Files {
		directives := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//wireclass:dispatch") {
					directives[pass.Fset.Position(c.End()).Line] = true
				}
			}
		}
		if len(directives) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			line := pass.Fset.Position(ts.Pos()).Line
			if !directives[line-1] && !directives[line] {
				return true
			}
			checkDispatch(pass, ts)
			return true
		})
	}
}

func checkDispatch(pass *analysis.Pass, ts *ast.TypeSwitchStmt) {
	wirePkg := importedWire(pass)
	if wirePkg == nil {
		pass.Reportf(ts.Pos(), "//wireclass:dispatch switch in a package that does not import the wire package")
		return
	}
	required := requestTypes(wirePkg)

	covered := map[types.Object]bool{}
	ast.Inspect(ts.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			t := pass.Info.Types[e].Type
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				covered[named.Obj()] = true
			}
		}
		return true
	})
	for _, req := range required {
		if !covered[req] {
			pass.Reportf(ts.Pos(), "dispatch type switch has no case for %s.%s; the API decodes but is never served", wirePkg.Name(), req.Name())
		}
	}
}

// importedWire finds the imported package that defines the wire protocol
// (package name "wire" with an ErrorCode type).
func importedWire(pass *analysis.Pass) *types.Package {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Name() == "wire" && imp.Scope().Lookup("ErrorCode") != nil {
			return imp
		}
	}
	return nil
}

// requestTypes returns wire's exported *Request message types in a
// stable order.
func requestTypes(wirePkg *types.Package) []types.Object {
	scope := wirePkg.Scope()
	msg, _ := scope.Lookup("Message").(*types.TypeName)
	var msgIface *types.Interface
	if msg != nil {
		msgIface, _ = msg.Type().Underlying().(*types.Interface)
	}
	var out []types.Object
	for _, name := range scope.Names() {
		if !strings.HasSuffix(name, "Request") || name == "RequestHeader" {
			continue
		}
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
			continue
		}
		if msgIface != nil && !types.Implements(types.NewPointer(tn.Type()), msgIface) {
			continue
		}
		out = append(out, tn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
