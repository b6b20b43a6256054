package lint

import (
	"go/ast"
)

// wallClockFuncs are the package-level functions of "time" that read or
// wait on the wall clock. Pure constructors and formatters (time.Date,
// time.Duration arithmetic, time.Unix) are fine: they do not observe
// the host's clock.
var wallClockFuncs = map[string]string{
	"Now":       "read",
	"Since":     "read",
	"Until":     "read",
	"Sleep":     "wait on",
	"After":     "wait on",
	"Tick":      "wait on",
	"NewTimer":  "wait on",
	"NewTicker": "wait on",
	"AfterFunc": "wait on",
}

// AnalyzerVirtClock enforces the discrete-event-simulation invariant:
// simulation code must take time from the virtual clock (simnet.Sim's
// event loop), never the host's wall clock. A single time.Now in a
// simulated path silently couples results to host speed and scheduling,
// which is exactly the nondeterminism the paper's controlled testbed —
// and this reproduction's determinism suites — exist to rule out.
//
// The check flags every call to a wall-clock function of package time.
// Real-time components opt out per directory (.vqlint.json relaxes
// cmd/ and examples/) or per call site with a reasoned //lint:ignore
// (internal/trace's wall-clock epoch). A component that times real work
// can instead take its clock as a func value, as internal/serve and
// internal/route do, which also lets tests substitute a fake.
var AnalyzerVirtClock = &Analyzer{
	Name:     "virtclock",
	Severity: SeverityError,
	Doc: "Forbids wall-clock reads and waits (time.Now, time.Since, time.Sleep, " +
		"time.After, timers, tickers) so simulation code is driven exclusively by " +
		"the discrete-event virtual clock. Relax per directory for real-time " +
		"components, or per call site with //lint:ignore and a reason.",
	RunFile: func(p *Pass, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := p.PkgFunc(call)
			if !ok || pkgPath != "time" {
				return true
			}
			verb, banned := wallClockFuncs[name]
			if !banned {
				return true
			}
			p.Report(call.Pos(),
				"time."+name+" would "+verb+" the wall clock; simulation time must come from the virtual event clock",
				"thread the event clock (e.g. simnet.Sim.Now or the component's clock func) instead of package time")
			return true
		})
	},
}
