package analyzers

import (
	"go/ast"
	"go/token"
)

// nsarithScope lists the packages whose arithmetic reaches WriteJSON:
// the report numbers must be byte-identical across engines, which the
// repo guarantees by keeping every duration sum in int64 nanoseconds
// and converting to float64 exactly once, at the final division.
var nsarithScope = map[string]bool{
	"perfvar":                         true,
	"perfvar/internal/report":         true,
	"perfvar/internal/core/imbalance": true,
	"perfvar/internal/core/segment":   true,
	"perfvar/internal/core/dominant":  true,
	"perfvar/internal/stats":          true,
}

// NsArith flags report-path arithmetic that leaves int64 nanoseconds
// too early. Accumulating float64-converted durations inside a loop
// (acc += float64(hi-lo)) makes the total depend on addition order and
// rounding the moment a partial sum passes 2^53, while the equivalent
// int64 accumulation is exact and order-independent — the property the
// streaming engine's byte-identity proof rests on (imbalance.Binner).
// A second pattern, accumulation inside a range over a map, is flagged
// regardless of the operand: map iteration order is randomized, so a
// floating sum folded in that order differs run to run.
var NsArith = &Analyzer{
	Name: "nsarith",
	Doc:  "report-path sums stay int64 nanoseconds until the single final float64 division",
	Run:  runNsArith,
}

func runNsArith(pass *Pass) {
	if !nsarithScope[pkgBase(pass.ImportPath)] {
		return
	}
	ix := buildMapIndex(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			locals := localMapNames(fn)
			ast.Inspect(fn, func(n ast.Node) bool {
				switch loop := n.(type) {
				case *ast.ForStmt:
					flagFloatAccum(pass, loop.Body)
				case *ast.RangeStmt:
					flagFloatAccum(pass, loop.Body)
					if ix.isMapExpr(locals, loop.X) {
						flagMapOrderAccum(pass, loop.Body)
					}
				}
				return true
			})
		}
	}
}

// flagFloatAccum reports compound assignments that fold a float64
// conversion into an accumulator inside a loop.
func flagFloatAccum(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Nested loops are visited by the caller's Inspect too; only
		// report for the innermost loop walk by skipping nothing — the
		// same node reported twice would duplicate diagnostics, so the
		// outer walk stops at nested loops.
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
			return true
		}
		for _, rhs := range as.Rhs {
			if pos, ok := findFloat64Conv(rhs); ok {
				pass.Reportf(pos,
					"float64 conversion folded into a loop accumulator: sum int64 nanoseconds in the loop and convert once after it")
			}
		}
		return true
	})
}

// flagMapOrderAccum reports compound assignments inside a range over a
// map: the fold order is randomized per run.
func flagMapOrderAccum(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
			return true
		}
		pass.Reportf(as.Pos(),
			"accumulation in map iteration order: fold over sorted keys so report sums are deterministic")
		return true
	})
}

// findFloat64Conv locates a float64(...) conversion inside e.
func findFloat64Conv(e ast.Expr) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "float64" {
			pos, found = call.Pos(), true
		}
		return !found
	})
	return pos, found
}
