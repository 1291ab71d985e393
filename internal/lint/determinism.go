package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer flags the four source shapes that smuggle host
// nondeterminism into the deterministic core, where every executed
// instruction feeds a bit-reproducible fingerprint:
//
//   - wall-clock reads (time.Now, time.Since): virtual time is sim.Time;
//     host time differs between runs. //dsmlint:wallclock marks the reviewed
//     exceptions that feed host-side metrics only (e.g. barrier-overhead
//     counters), never virtual state.
//   - package-level math/rand draws: the process-global source is shared
//     with everything else in the binary and seeded per-process, so a draw's
//     value depends on unrelated code. All randomness must come from the
//     kernel's seeded *rand.Rand (sim.Kernel.Rand). Constructing private
//     sources (rand.New, rand.NewSource, rand.NewPCG, rand.NewChaCha8) is
//     allowed; drawing the global one is not.
//   - range over a map: iteration order is randomised by the runtime.
//     //dsmlint:ordered marks ranges proven order-insensitive (commutative
//     fold, or results sorted before any fingerprint sees them).
//   - environment reads (os.Getenv, os.LookupEnv, os.Environ): a mode the
//     environment selects is a code path no caller, test or benchmark chose
//     and no differential suite knows to sweep. There is no annotation
//     escape; take the value as a parameter.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand draws, unordered map ranges " +
		"and environment reads inside the deterministic core",
	Run: runDeterminism,
}

// randConstructors are the package-level math/rand functions that build
// private sources rather than drawing the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(p *Pass) error {
	if !p.InCore() {
		return nil
	}
	for _, f := range p.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				p.checkDeterminismCall(n)
			case *ast.RangeStmt:
				p.checkMapRange(n)
			}
			return true
		})
	}
	return nil
}

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("" if the callee is a method, builtin, or local).
func (p *Pass) pkgFunc(call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", "" // method, not a package-level function
	}
	return fn.Pkg().Path(), fn.Name()
}

func (p *Pass) checkDeterminismCall(call *ast.CallExpr) {
	pkgPath, name := p.pkgFunc(call)
	switch pkgPath {
	case "time":
		if name == "Now" || name == "Since" {
			if p.Annotated(call.Pos(), DirWallClock) {
				return
			}
			p.Reportf(call.Pos(), "wall clock: time.%s reads host time inside the deterministic core; "+
				"use virtual sim.Time, or annotate //dsmlint:wallclock if this feeds host-side metrics only", name)
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[name] {
			return
		}
		p.Reportf(call.Pos(), "global RNG: %s.%s draws the process-global source inside the deterministic core; "+
			"draw the kernel's seeded RNG (sim.Kernel.Rand) instead", pkgPath, name)
	case "os":
		if name == "Getenv" || name == "LookupEnv" || name == "Environ" {
			p.Reportf(call.Pos(), "environment: os.%s steers the deterministic core from outside the program; "+
				"take the value as a parameter instead", name)
		}
	}
}

func (p *Pass) checkMapRange(r *ast.RangeStmt) {
	tv, ok := p.Info.Types[r.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if p.Annotated(r.Pos(), DirOrdered) {
		return
	}
	p.Reportf(r.Pos(), "map range: iteration order is randomised and must not reach a fingerprint; "+
		"sort the keys first, or annotate //dsmlint:ordered if the fold is order-insensitive")
}
