package lint

// All returns every built-in analyzer, in stable order. The directive
// meta-check is listed so `-checks`/`-list` can name it, but it is
// implemented inside the runner (suppression parsing) rather than as a
// Run/RunFile hook.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerVirtClock,
		AnalyzerDetRand,
		AnalyzerWallTaint,
		AnalyzerMapOrder,
		AnalyzerSpanLeak,
		AnalyzerCloseCheck,
		AnalyzerErrFlow,
		{
			Name:     DirectiveCheckName,
			Severity: SeverityError,
			Doc: "Validates //lint:ignore directives: each must name a known check " +
				"and carry a written reason. Runs unconditionally — a malformed " +
				"suppression is itself an invariant violation.",
		},
		{
			Name:     StaleSuppressCheckName,
			Severity: SeverityWarn,
			Doc: "Audits //lint:ignore directives for staleness: a directive that " +
				"suppresses nothing (and whose named checks all ran) is reported. " +
				"Implemented inside the runner, after suppression resolution.",
		},
	}
}

// ByName indexes All() by analyzer name.
func ByName() map[string]*Analyzer {
	m := make(map[string]*Analyzer)
	for _, a := range All() {
		m[a.Name] = a
	}
	return m
}
