package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"neurospatial/internal/engine"
)

// metricDef mirrors one BENCHMARK.json metric entry; the smoke test asserts
// the two lists agree, name for name.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them (see README, "Every cell has a number").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p99_us", "us", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"batch_qps", "1/s", "higher", 0.25},
	{"commit_p50_us", "us", "lower", 0.25},
	{"commit_p95_us", "us", "lower", 0.25},
	{"compact_stall_ms", "ms", "lower", 0.25},
	{"reopen_ms", "ms", "lower", 0.25},
	{"query_cold_p50_us", "us", "lower", 0.25},
	{"checkpoint_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"walk_step_us", "us", "lower", 0.25},
	{"walk_stall_ms", "ms", "lower", 0.25},
	{"join_ms", "ms", "lower", 0.25},
	{"ok_share", "share", "higher", 0.001},
}

// kindNames are the engine's request kinds, as the per-layer metric names
// spell them.
var kindNames = func() []string {
	var out []string
	for _, k := range engine.Kinds() {
		out = append(out, k.String())
	}
	return out
}()

// perLayer lists the traced run's metrics, grouped by the repo package they
// measure. A metric a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "session.do_ns", "session.self_ns", "session.open_ns", "request.validate_ns")
	add("share", "lower", "session.unattributed_share")
	add("ns", "lower", "planner.consult_hit_ns", "planner.consult_miss_ns")
	add("share", "higher", "planner.cache_hit_ratio")
	add("count", "lower", "planner.probes_per_epoch")
	for _, c := range contenders {
		add("share", "higher", "planner.route_share."+c)
	}
	for _, c := range contenders {
		for _, k := range kindNames {
			add("ns", "lower", c+".do_ns."+k)
		}
		add("count", "lower", c+".pages_per_query", c+".entries_per_result")
		add("ms", "lower", c+".build_ms")
	}
	add("count", "lower", "flat.reseeds_per_query", "sharded.shards_touched_per_query")
	add("count", "lower", "pager.reads_per_query")
	add("ns", "lower", "pager.read_ns", "pager.filter_ns_per_page")
	add("share", "higher", "pager.pool_hit_ratio")
	add("count", "lower", "pager.pool_evictions_per_step")
	add("share", "higher", "pager.cow_shared_ratio")
	add("ns", "lower", "snapshot.overlay_ns")
	add("count", "lower", "snapshot.delta_entries_per_query", "snapshot.tombstones_per_query", "snapshot.overlay_size")
	add("us", "lower", "dataset.commit_us_per_op")
	add("ms", "lower", "dataset.compact_ms")
	add("count", "higher", "dataset.compactions", "dataset.commits_per_compaction")
	add("count", "lower", "dataset.layout_pages")
	add("us", "lower", "wal.append_us")
	add("B", "lower", "wal.bytes_per_op")
	add("ms", "lower", "wal.replay_ms")
	add("ns", "lower", "pagefile.read_miss_ns", "pagefile.read_hit_ns")
	add("count", "lower", "pagefile.reads_per_cold_pass")
	add("ms", "lower", "pagefile.write_ms", "snapfile.write_ms", "snapfile.read_ms", "durable.open_clean_ms")
	add("B", "lower", "durable.disk_bytes_per_item")
	add("us", "lower", "durable.query_cold_p99_us")
	add("1/s", "higher", "parallel.batch_qps_w1")
	add("x", "higher", "parallel.batch_speedup")
	add("ms", "lower", "shard.partition_ms")
	for _, p := range []string{"hilbert", "extrapolation", "scout"} {
		add("share", "higher", "prefetch.accuracy."+p)
	}
	for _, p := range prefetcherNames {
		add("count", "lower", "prefetch.demand_reads_per_step."+p)
	}
	add("us", "lower", "scout.predict_overhead_us")
	add("ms", "lower", "touch.build_ms", "touch.probe_ms")
	add("count", "lower", "touch.comparisons_per_pair")
	add("ms", "lower", "join.pbsm_ms", "join.s3_ms")
	add("count", "higher", "join.pairs")
	add("ms", "lower", "circuit.build_ms")
	add("count", "higher", "circuit.elements")
	add("%", "lower", "trace.overhead_pct")
	add("share", "lower", "failed_share")
	return out
}

// exactCounts are the per-layer and end-to-end metrics that must repeat bit
// for bit across two runs of one seed; -aa asserts it.
func isExactCount(name string) bool {
	switch {
	case strings.HasSuffix(name, ".pages_per_query"),
		strings.HasPrefix(name, "prefetch."),
		name == "walk_stall_ms", name == "wal.bytes_per_op",
		name == "durable.disk_bytes_per_item", name == "join.pairs",
		name == "circuit.elements":
		return true
	}
	return false
}

// report is what one workload instance measured.
type report struct {
	values    map[string]float64
	samples   map[string]int    // sample count behind a value, where it has one
	source    map[string]string // which pass supplied the value
	notes     []string
	attempted int64
	failed    int64
	firstErr  string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, source: map[string]string{}}
}

func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	if samples > 0 {
		r.samples[name] = samples
	}
}

// setMedian records the median of xs, leaving the metric unset when the pass
// took no sample of it.
func (r *report) setMedian(name string, xs []float64) {
	if len(xs) > 0 {
		r.set(name, median(xs), len(xs))
	}
}

// setCalm records the calm decile of a timing's samples, one per round.
func (r *report) setCalm(name string, xs []float64) {
	if len(xs) > 0 {
		r.set(name, calmLow(xs), len(xs))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one checked operation.
func (r *report) op() { r.attempted++ }

// fail counts one error return or wrong answer; the first is kept for display.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// check counts one verified operation and fails it when err is non-nil.
func (r *report) check(err error, what string) bool {
	r.op()
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// absorb takes from o every metric r lacks, and all of o's checks.
func (r *report) absorb(o *report, source string) {
	for name, v := range o.values {
		if _, have := r.values[name]; have {
			continue
		}
		r.values[name] = v
		r.source[name] = source
		if n, ok := o.samples[name]; ok {
			r.samples[name] = n
		}
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" && o.firstErr != "" {
		r.firstErr = source + ": " + o.firstErr
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of xs; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// The host is shared: for seconds to minutes at a time a neighbour slows every
// call by 10-40 %, and it only ever slows them. Within one 25 s run the median
// round moved by ±13 % between processes, the fastest tenth of the rounds by
// ±3 %. Rounds are therefore not averaged but ranked: a timing is reported as
// the lowest decile of its rounds, a rate as the highest — the level the
// program reached in the tenth of the run the host disturbed least. A run
// repeats as long as a tenth of it was left alone; a median needs half.

// calmLow is the lowest decile of a timing's rounds.
func calmLow(xs []float64) float64 { return quantile(xs, 0.10) }

// calmHigh is the highest decile of a rate's rounds.
func calmHigh(xs []float64) float64 { return quantile(xs, 0.90) }

// roundsOf cuts xs, which is in time order, into at most n rounds of equal
// length and at least min samples each (the remainder joins the last round),
// and returns the q-quantile of every round.
func roundsOf(xs []float64, n, min int, q float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	if n < 1 || len(xs)/n < min {
		n = len(xs) / min
	}
	if n < 1 {
		n = 1
	}
	size := len(xs) / n
	out := make([]float64, n)
	for i := range out {
		end := (i + 1) * size
		if i == n-1 {
			end = len(xs)
		}
		out[i] = quantile(xs[i*size:end], q)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies accumulates per-call latencies in rounds. A percentile is taken
// per round and the rounds' calm decile is reported, which repeats far better
// between processes than one percentile over everything.
type latencies struct {
	cur   []float64 // µs, current round
	p50s  []float64
	p99s  []float64
	qps   []float64
	total int
}

func (l *latencies) add(d time.Duration) { l.cur = append(l.cur, us(d)) }

// endRound closes the current round.
func (l *latencies) endRound() {
	n := len(l.cur)
	if n == 0 {
		return
	}
	var busy float64
	for _, x := range l.cur {
		busy += x
	}
	sort.Float64s(l.cur) // the round is over: its order no longer matters
	rank := func(q float64) float64 { return l.cur[int(math.Ceil(q*float64(n)))-1] }
	l.p50s = append(l.p50s, rank(0.50))
	l.p99s = append(l.p99s, rank(0.99))
	l.qps = append(l.qps, ratio(float64(n), busy/1e6))
	l.total += n
	l.cur = l.cur[:0]
}

// report writes the closed rounds' calm deciles under the given names.
func (l *latencies) report(r *report, p50, p99, qps string) {
	if len(l.p50s) == 0 {
		return
	}
	r.set(p50, calmLow(l.p50s), l.total)
	if p99 != "" {
		r.set(p99, calmLow(l.p99s), l.total)
	}
	if qps != "" {
		r.set(qps, calmHigh(l.qps), l.total)
	}
}
