// Command perfbench is minshare's benchmark.  It runs the deployment
// path — a party.Server and a party.Client in one process, talking over
// loopback TCP — on one of two seeded workloads, checks every answer
// against plaintext ground truth, and prints the end-to-end metrics
// (--trace 0) or the per-layer split of a traced run (--trace 1).  The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload cold-intersect --seed 1 --seconds 20 --trace 0
//
// Records, including host facts and sample counts, and the traced
// run's Chrome trace_event file are written under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"minshare/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRuns is how many times an end-to-end run sets its workload up;
// setup_s is the median of those set-ups.  One set-up is a single
// warm-up or cache-filling query whose latency varies by a fifth, so it
// takes this many for the median to hold still from run to run.
const setupRuns = 21

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int // set-ups per end-to-end run
	out      string
}

// metric is one reported number.  samples is how many observations it
// summarises (queries, set-ups, sampled elements); it goes to the record
// and the human-readable lines, not the final JSON line.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: setupRuns}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: cold-intersect or warm-join")
	fs.Uint64Var(&o.seed, "seed", 1, "seed all inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for records and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := lookupWorkload(o.workload)
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	res, rec, err := bench(context.Background(), w, o, stdout)
	if rec != nil {
		if werr := writeRecord(o, rec); werr != nil {
			fmt.Fprintln(stderr, "perfbench:", werr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// record is everything one run measured, written as JSON next to the
// trace file: the metrics with units and sample counts, the host and
// configuration facts, and any failures.
type record struct {
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Seed     uint64         `json:"seed"`
	Traced   bool           `json:"traced"`
	Host     hostFacts      `json:"host"`
	Config   map[string]any `json:"config"`
	StealPct float64        `json:"window_steal_pct"`
	Metrics  []recMetric    `json:"metrics"`
	Errors   []string       `json:"errors,omitempty"`
}

type recMetric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

func writeRecord(o options, rec *record) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", o.out, err)
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, recordName(o, "json")), data, 0o644)
}

func recordName(o options, ext string) string {
	kind := "e2e"
	if o.trace {
		kind = "trace"
	}
	return fmt.Sprintf("%s-seed%d-%s.%s", o.workload, o.seed, kind, ext)
}

func configFacts(s spec) map[string]any {
	return map[string]any{
		"backend": s.backend, "protocol": s.protocol,
		"V_S": s.nS, "V_R": s.nR, "common": s.common,
		"shards": s.shards, "chunk_size": s.chunkSize,
		"sender_cache": s.cache, "bound_table": s.bound,
		"loop": "closed loop, one client",
	}
}

// measured is one timed window and the process-level readings around it.
type measured struct {
	st       *windowStats
	wall     time.Duration
	cpu      time.Duration
	bytes    int64
	alloc    uint64
	heapPeak uint64
	w0, w1   int64   // window bounds on the tracer's clock (traced runs)
	stealPct float64 // host steal time during the window, -1 if unknown
	obs      obs.CounterSnapshot
	cache    obs.CacheSnapshot
}

func measureWindow(ctx context.Context, f *fixture, d time.Duration) (*measured, error) {
	e := f.e
	runtime.GC()
	m := &measured{}
	alloc0, _ := readHeap()
	cpu0 := cpuTime()
	bytes0 := e.bytes.Load()
	var obs0 obs.CounterSnapshot
	if e.reg != nil {
		obs0 = e.reg.Global().Snapshot()
	}
	cache0 := e.cache.Snapshot()
	if e.tr != nil {
		e.tr.resetCapture()
		m.w0 = e.tr.now()
	}
	steal0, total0, stealOK := stealTicks()
	hs := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	m.st = f.window(ctx, d)
	m.wall = time.Since(start)
	m.heapPeak = hs.finish()
	if e.tr != nil {
		m.w1 = e.tr.now()
	}
	m.stealPct = -1
	if steal1, total1, ok := stealTicks(); ok && stealOK && total1 > total0 {
		m.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	m.cpu = cpuTime() - cpu0
	m.bytes = e.bytes.Load() - bytes0
	alloc1, _ := readHeap()
	m.alloc = alloc1 - alloc0
	if e.reg != nil {
		m.obs = subCounters(e.reg.Global().Snapshot(), obs0)
	}
	c1 := e.cache.Snapshot()
	m.cache = obs.CacheSnapshot{Hits: c1.Hits - cache0.Hits, Misses: c1.Misses - cache0.Misses}
	if m.st.queries() == 0 {
		return m, fmt.Errorf("no query completed in the window: %v", m.st.firstErr)
	}
	return m, nil
}

// add folds another window of the same run into m.  Only the fields an
// end-to-end run reports are kept.
func (m *measured) add(p *measured) {
	m.st.attempted += p.st.attempted
	m.st.failed += p.st.failed
	if m.st.firstErr == nil {
		m.st.firstErr = p.st.firstErr
	}
	m.st.latencies = append(m.st.latencies, p.st.latencies...)
	if m.stealPct < 0 || p.stealPct < 0 {
		m.stealPct = -1
	} else {
		m.stealPct = (m.stealPct*m.wall.Seconds() + p.stealPct*p.wall.Seconds()) / (m.wall + p.wall).Seconds()
	}
	m.wall += p.wall
	m.cpu += p.cpu
	m.bytes += p.bytes
	m.alloc += p.alloc
	m.heapPeak = max(m.heapPeak, p.heapPeak)
}

func subCounters(a, b obs.CounterSnapshot) obs.CounterSnapshot {
	return obs.CounterSnapshot{
		ModExpEncrypts:   a.ModExpEncrypts - b.ModExpEncrypts,
		ModExpDecrypts:   a.ModExpDecrypts - b.ModExpDecrypts,
		KeyGens:          a.KeyGens - b.KeyGens,
		OracleHashes:     a.OracleHashes - b.OracleHashes,
		PayloadEncrypts:  a.PayloadEncrypts - b.PayloadEncrypts,
		PayloadDecrypts:  a.PayloadDecrypts - b.PayloadDecrypts,
		FramesSent:       a.FramesSent - b.FramesSent,
		FramesRecv:       a.FramesRecv - b.FramesRecv,
		PayloadBytesSent: a.PayloadBytesSent - b.PayloadBytesSent,
		PayloadBytesRecv: a.PayloadBytesRecv - b.PayloadBytesRecv,
		WireBytesSent:    a.WireBytesSent - b.WireBytesSent,
		WireBytesRecv:    a.WireBytesRecv - b.WireBytesRecv,
	}
}

// setUp builds the workload, timing the build.  Everything a workload
// does before its window — table build, server start, the warm-up
// query, cache fill or base subscription — counts as set-up.
func setUp(ctx context.Context, s spec, e *env, seed uint64) (*fixture, time.Duration, error) {
	start := time.Now()
	f, err := s.build(ctx, s, e, seed)
	return f, time.Since(start), err
}

// teardown closes the fixture and checks that every goroutine the run
// started has exited.
func teardown(f *fixture, baseline int) error {
	if err := f.close(); err != nil {
		return err
	}
	if !waitGoroutines(baseline, 5*time.Second) {
		return fmt.Errorf("%d goroutines still running after the server and client closed (had %d before set-up)",
			runtime.NumGoroutine(), baseline)
	}
	return nil
}

// bench runs one invocation and returns the final-line result and the
// record.  A returned error means the run could not be measured at all;
// wrong answers are reported through result.Correct instead.
func bench(ctx context.Context, s spec, o options, stdout io.Writer) (*result, *record, error) {
	rec := &record{Workload: s.name, Why: s.why, Seed: o.seed, Traced: o.trace, Host: host(), Config: configFacts(s)}
	run := endToEndRun
	if o.trace {
		run = tracedRun
	}
	out, err := run(ctx, s, o, stdout)
	if err != nil {
		return nil, rec, err
	}
	rec.StealPct = out.stealPct
	res := &result{Correct: len(out.errs) == 0 && out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]jsonMetric{}}
	for _, m := range out.metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		rec.Metrics = append(rec.Metrics, recMetric{m.name, m.unit, m.value, m.samples})
		if !o.trace {
			fmt.Fprintf(stdout, "%-24s %14.4f %-9s n=%d\n", m.name, m.value, m.unit, m.samples)
		}
	}
	for _, err := range out.errs {
		rec.Errors = append(rec.Errors, err.Error())
		fmt.Fprintln(stdout, "FAIL:", err)
	}
	h := rec.Host
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s link=%q\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit, h.Link)
	fmt.Fprintf(stdout, "config: %s\n", mustJSON(rec.Config))
	return res, rec, nil
}

// runOutcome is what one invocation measured and what went wrong.
type runOutcome struct {
	metrics           []metric
	attempted, failed int
	errs              []error
	stealPct          float64
}

// endToEndRun sets the workload up o.setups times and measures an equal
// share of the untraced window on each set-up, then derives the
// end-to-end metrics.  Spreading the set-ups over the whole run lets
// setup_s see the same host conditions as the queries, instead of one
// burst at the start.
func endToEndRun(ctx context.Context, s spec, o options, stdout io.Writer) (*runOutcome, error) {
	baseline := runtime.NumGoroutine()
	var setups []time.Duration
	out := &runOutcome{}
	m := &measured{st: &windowStats{}}
	for i := 0; i < o.setups; i++ {
		f, took, err := setUp(ctx, s, &env{}, o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took)
		part, err := measureWindow(ctx, f, window(o)/time.Duration(o.setups))
		if err != nil {
			out.errs = append(out.errs, err)
		}
		if err := teardown(f, baseline); err != nil {
			out.errs = append(out.errs, err)
		}
		m.add(part)
	}
	st := m.st
	out.metrics = endToEnd(s, m, setups)
	out.attempted, out.failed = st.attempted, st.failed
	if st.firstErr != nil {
		out.errs = append(out.errs, st.firstErr)
	}
	fmt.Fprintf(stdout, "error_rate %.4f (%d of %d failed)\n", float64(st.failed)/float64(max(st.attempted, 1)), st.failed, st.attempted)
	fmt.Fprintf(stdout, "host_steal_pct %.2f (hypervisor steal during the window; wall-clock metrics move with it)\n", m.stealPct)
	out.stealPct = m.stealPct
	fmt.Fprintf(stdout, "latency_ms p10 %.3f p50 %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f (n=%d)\n",
		ms(quantile(st.latencies, 0.1)), ms(quantile(st.latencies, 0.5)), ms(quantile(st.latencies, 0.75)),
		ms(quantile(st.latencies, 0.9)), ms(quantile(st.latencies, 0.95)), ms(quantile(st.latencies, 0.99)),
		len(st.latencies))
	return out, nil
}

// tracedRun measures an untraced half window and then a traced half
// window on fresh set-ups: the pair gives the tracing overhead, and the
// traced half alone feeds the layer split and the census cross-check.
func tracedRun(ctx context.Context, s spec, o options, stdout io.Writer) (*runOutcome, error) {
	baseline := runtime.NumGoroutine()
	out := &runOutcome{}
	ue := &env{}
	uf, _, err := setUp(ctx, s, ue, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	um, err := measureWindow(ctx, uf, window(o)/2)
	if err != nil {
		out.errs = append(out.errs, err)
	}
	if err := teardown(uf, baseline); err != nil {
		out.errs = append(out.errs, err)
	}
	te := &env{tr: newTracer(), reg: obs.NewRegistry()}
	tf, _, err := setUp(ctx, s, te, o.seed)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tm, err := measureWindow(ctx, tf, window(o)/2)
	if err != nil {
		out.errs = append(out.errs, err)
	}
	out.stealPct = tm.stealPct
	spans := clip(te.tr.snapshot(), tm.w0, tm.w1)
	if err := teardown(tf, baseline); err != nil {
		out.errs = append(out.errs, err)
	}
	out.attempted = um.st.attempted + tm.st.attempted
	out.failed = um.st.failed + tm.st.failed
	for _, st := range []*windowStats{um.st, tm.st} {
		if st.firstErr != nil {
			out.errs = append(out.errs, st.firstErr)
		}
	}
	c := census{socketBytes: tm.bytes, obs: tm.obs, cache: tm.cache}
	for _, sp := range spans {
		switch sp.op {
		case opApply:
			c.apply++
		case opMap:
			c.mapping++
		case opEncrypt:
			c.encrypt++
		case opDecrypt:
			c.decrypt++
		}
	}
	if tm.st.failed == 0 {
		out.errs = append(out.errs, checkCensus(s, te, tm.st, c)...)
	}
	if out.metrics, err = perLayer(s, te, tm, um, spans); err != nil {
		out.errs = append(out.errs, err)
	}
	if err := writeTrace(o, s, te.tr.base, spans); err != nil {
		out.errs = append(out.errs, err)
	}
	printLayerTable(stdout, s, out.metrics)
	fmt.Fprintf(stdout, "host_steal_pct %.2f (traced window)\n", tm.stealPct)
	return out, nil
}

func window(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// endToEnd derives the user-visible metrics of an untraced window.
func endToEnd(s spec, m *measured, setups []time.Duration) []metric {
	st := m.st
	q := st.queries()
	n := max(q, 1)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return []metric{
		{"throughput_values_per_s", "values/s", float64(q*(s.nS+s.nR)) / m.wall.Seconds(), q},
		{"latency_p50_ms", "ms", ms(quantile(st.latencies, 0.5)), len(st.latencies)},
		{"latency_p90_ms", "ms", ms(quantile(st.latencies, 0.9)), len(st.latencies)},
		{"cpu_ms_per_query", "ms", ms(m.cpu) / float64(n), q},
		{"wire_bytes_per_query", "bytes", float64(m.bytes) / float64(n), q},
		{"alloc_bytes_per_query", "bytes", float64(m.alloc) / float64(n), q},
		{"heap_peak_mb", "MiB", float64(m.heapPeak) / (1 << 20), 1},
		{"setup_s", "s", medianFloat(setupS), len(setups)},
	}
}

func writeTrace(o options, s spec, base time.Time, spans []span) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", o.out, err)
	}
	f, err := os.Create(filepath.Join(o.out, recordName(o, "trace_event.json")))
	if err != nil {
		return err
	}
	first := int32(-1)
	for _, sp := range spans {
		if first < 0 || sp.query < first {
			first = sp.query
		}
	}
	werr := obs.WriteTraceEvents(f, sessions(spans, base, s.protocol, first))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func printLayerTable(w io.Writer, s spec, ms []metric) {
	fmt.Fprintf(w, "per-layer split, %s (per query):\n", s.name)
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return strings.SplitN(sorted[i].name, ".", 2)[0] < strings.SplitN(sorted[j].name, ".", 2)[0]
	})
	for _, m := range sorted {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
}
