package main

import (
	"sort"
	"time"
)

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread printed
// here is the spread the acceptance check computes. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durations collects the lengths, in milliseconds, of every span with the
// given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// exposedPerRound returns, for every collect span, the part of it no
// LocalTrain span covers: dispatch, encode, framing, socket, decode and fold
// time that compute does not hide. With two workers training at once their
// spans overlap, so the union — not the sum — is subtracted.
func exposedPerRound(spans []span) []float64 {
	var out []float64
	for id, c := range spans {
		if c.name != spanCollect {
			continue
		}
		var train [][2]time.Duration
		for _, s := range spans {
			if s.name == spanLocalTrain && s.parent == id {
				train = append(train, [2]time.Duration{s.start, s.end})
			}
		}
		out = append(out, ms(c.dur()-unionLen(train, c.start, c.end)))
	}
	return out
}

// attributed are the spans that tile the engine goroutine's time: they never
// overlap one another, so wall minus their sum is what no decorator saw.
var attributed = []string{spanCollect, spanInstall, spanServerRound, spanPredict, spanCheckpoint, spanTaskHooks}

// layerMetrics turns one traced run's spans into the inline per-layer
// metrics. Per-call metrics are medians over the run's calls; predict and
// the task hooks are totals, because their cost to the run is their sum.
func layerMetrics(spans []span, wall time.Duration) map[string]float64 {
	wallMS := ms(wall)
	collect := durations(spans, spanCollect)
	train := durations(spans, spanLocalTrain)
	exposed := exposedPerRound(spans)
	out := map[string]float64{
		"fl.round_collect_ms":        medianOrZero(collect),
		"fl.round_collect_max_ms":    0,
		"alg.local_train_ms":         medianOrZero(train),
		"alg.local_train_core_share": sum(train) / (wallMS * benchProcs),
		"alg.spawn_ms":               medianOrZero(durations(spans, spanSpawn)),
		"alg.server_round_ms":        medianOrZero(durations(spans, spanServerRound)),
		"alg.predict_ms":             sum(durations(spans, spanPredict)),
		"alg.task_hooks_ms":          sum(durations(spans, spanTaskHooks)),
		"fl.fold_ms":                 medianOrZero(durations(spans, spanFold)),
		"fl.install_ms":              medianOrZero(durations(spans, spanInstall)),
		"checkpoint.save_ms":         medianOrZero(durations(spans, spanCheckpoint)),
		"transport.exposed_ms":       medianOrZero(exposed),
		"transport.exposed_share":    sum(exposed) / wallMS,
	}
	for _, c := range collect {
		if c > out["fl.round_collect_max_ms"] {
			out["fl.round_collect_max_ms"] = c
		}
	}
	unattributed := wallMS
	for _, name := range attributed {
		unattributed -= sum(durations(spans, name))
	}
	out["run.unattributed_ms"] = unattributed
	return out
}
