package dilated

// Weights returns boundary bd's capacity histogram: weight k counts the
// groups that keep exactly k live sub-wires.
func (d *Degraded) Weights(bd int) []float64 { return d.hist[bd-1] }
