package obs

// ObserveValue feeds v to h. It and AppendFloat serve the string-keyed
// oracle registry of the external tests (oracle_test.go).
func (h *Histogram) ObserveValue(v float64) { h.observe(v) }

// AppendFloat is the number format of the metrics dumps.
var AppendFloat = appendFloat
