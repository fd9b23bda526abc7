package main

// profiledLayers are the layers whose self time the per-layer table
// reports; every other repo package is folded into other_frac.
var profiledLayers = []string{"eventq", "netsim", "dcqcn", "tcp", "acc", "rl", "hybrid", "psim", "runtime"}

// setShares fills the self-time shares of a folded profile.
func setShares(m map[string]float64, s *layerShares) {
	if s.total == 0 {
		return
	}
	listed := 0.0
	for _, l := range profiledLayers {
		f := s.frac(l)
		m[l+".self_frac"] = f
		listed += f
	}
	m["other_frac"] = 1 - listed
	m["netsim.map_frac"] = float64(s.mapNS["netsim"]) / float64(s.total)
}

// perUnit divides a layer's profiled nanoseconds by its work count.
func perUnit(ns int64, n float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / n
}

// setKindCounts copies obs trace counters into the layer counts.
func setKindCounts(m map[string]float64, byKind map[string]uint64) {
	for kind, name := range map[string]string{
		"ecn_mark":    "netsim.ecn_marks",
		"pfc_pause":   "netsim.pfc_pauses",
		"cnp":         "dcqcn.cnps",
		"rate_cut":    "dcqcn.rate_cuts",
		"tcp_rto":     "tcp.rtos",
		"agent_step":  "acc.agent_steps",
		"wred_update": "acc.wred_updates",
	} {
		m[name] = float64(byKind[kind])
	}
}
