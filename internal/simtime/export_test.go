package simtime

// BytesIn returns how many bytes rate r delivers over duration d.
func BytesIn(r Rate, d Duration) float64 {
	return float64(r) / 8 * d.Seconds()
}
