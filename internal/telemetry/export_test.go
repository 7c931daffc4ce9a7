package telemetry

// RaceEnabled exports raceEnabled to the external tests.
const RaceEnabled = raceEnabled

// AttributeSpan runs the allocation attribution a span pays on a
// collector with it enabled: the counter sample when the span opens,
// the sample when it ends, and the phase-table update.
func AttributeSpan(c *Collector, name string) {
	s := Span{c: c, name: name}
	s.beginAlloc(c)
	var rec SpanRecord
	s.endAlloc(&rec)
}
