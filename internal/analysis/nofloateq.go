package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoFloatEq reports == and != between floating-point operands. Exact float
// equality is almost always a bug in this codebase: the LP pivot logic
// (internal/lp/revised.go) is tolerance-based throughout, and a
// raw comparison silently turns a numerical question into a bit-pattern
// question. Two comparisons are exempt:
//
//   - comparisons where either operand is a compile-time constant (for
//     example "eff == 0" or "activity != 1"): these test sentinel or
//     structurally-exact values that were assigned, not computed;
//   - comparisons inside the tolerance helpers listed in
//     FloatEqAllowedFuncs, which exist to encapsulate exact tests.
//
// Test files (_test.go) are skipped entirely: the determinism regression
// tests assert byte-identical metrics across equal seeds, and exact float
// comparison is precisely the point there.
//
// Everything else should compare through an explicit tolerance
// (math.Abs(a-b) <= tol) or carry a //lint:allow nofloateq justification.
type NoFloatEq struct{}

// FloatEqAllowedFuncs names functions whose bodies may compare floats
// exactly (the project's blessed tolerance/exactness helpers), as
// "pkgPathSuffix.FuncName".
var FloatEqAllowedFuncs = map[string]bool{}

// Name implements Analyzer.
func (NoFloatEq) Name() string { return "nofloateq" }

// Doc implements Analyzer.
func (NoFloatEq) Doc() string {
	return "== / != between non-constant floating-point operands"
}

// Check implements Analyzer.
func (n NoFloatEq) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && n.allowedFunc(pkg, fd) {
				continue
			}
			ast.Inspect(decl, func(node ast.Node) bool {
				be, ok := node.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				x, y := pkg.Info.Types[be.X], pkg.Info.Types[be.Y]
				if !isFloat(x.Type) || !isFloat(y.Type) {
					return true
				}
				if x.Value != nil || y.Value != nil {
					return true // constant operand: sentinel/exact test
				}
				out = append(out, Finding{
					Analyzer: n.Name(),
					Pos:      pkg.Fset.Position(be.OpPos),
					Message:  "floating-point " + be.Op.String() + " between computed values; compare through a tolerance",
				})
				return true
			})
		}
	}
	return out
}

// allowedFunc reports whether a function declaration is a blessed
// tolerance helper.
func (NoFloatEq) allowedFunc(pkg *Package, fd *ast.FuncDecl) bool {
	if len(FloatEqAllowedFuncs) == 0 {
		return false
	}
	obj := pkg.Info.Defs[fd.Name]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return FloatEqAllowedFuncs[obj.Pkg().Path()+"."+obj.Name()]
}

// isFloat reports whether t's underlying type is a floating-point basic.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
