// Command benchmark is this repository's benchmark: four workloads, six
// end-to-end metrics, and a traced run that reports each layer's cost. See
// README.md in this directory for the workloads, the metric tables and the
// method.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh                    every workload, untraced: the end-to-end metrics
//	bash benchmark/run.sh -trace 1           ... then every workload traced: the per-layer metrics
//	bash benchmark/run.sh -repeat 5          five sets; spread of every metric against its bound
//	bash benchmark/run.sh -smoke             ~1 s of every workload and probe, oracle on
//	bash benchmark/run.sh -workload lib-compose -seed 7 -seconds 20 -trace 0    one run (the driver's form)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result as the last line")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: record spans, read counters, run the probes and report the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "about one second of every workload and probe, oracle on, no bounds checked")
		repeat   = flag.Int("repeat", 0, "run this many untraced sets and check every metric's spread against its bound")
		reverse  = flag.Bool("reverse", false, "run the workloads in reverse order")
		outDir   = flag.String("out", "benchmark/out", "directory for result.json and trace-<workload>.json")
		printDoc = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
		round    = flag.Bool("round", false, "internal: generate sim-figures' figures once in this process and print them")
	)
	flag.Parse()
	if *printDoc {
		os.Stdout.Write(manifest())
		return
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *outDir, extraSetups: 3}
	if rc.smoke {
		rc.seconds, rc.extraSetups = 1, 0
	}
	if *round {
		os.Exit(roundChild(rc))
	}
	if *workload != "" {
		os.Exit(runChild(*workload, rc))
	}

	order := make([]string, len(workloads))
	for i, w := range workloads {
		order[i] = w.Name
	}
	if *reverse {
		slices.Reverse(order)
	}
	p := &parent{rc: rc, order: order, env: environment(rc)}
	switch {
	case *repeat > 0:
		os.Exit(p.repeat(*repeat))
	case rc.smoke:
		os.Exit(p.sets(true))
	default:
		os.Exit(p.sets(rc.trace))
	}
}

// runChild runs one workload in this process: the form the driver invokes.
// Everything human-readable goes first; the last line of standard output is
// the result object.
func runChild(name string, rc runConfig) int {
	// Fixed conditions: two cores' worth of Go scheduling, whatever the host.
	runtime.GOMAXPROCS(clients)
	var res *result
	var err error
	switch name {
	case "serve-point", "serve-envelope":
		res, err = runServe(name, rc)
	case "lib-compose":
		res, err = runLib(rc)
	case "sim-figures":
		res, err = runSim(rc)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	res.finish()
	printResult(os.Stdout, res)
	if err := writeJSON(filepath.Join(rc.outDir, childFile(name, rc.trace)), res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, make(map[string]value)}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func childFile(workload string, trace bool) string {
	if trace {
		return "run-" + workload + "-trace.json"
	}
	return "run-" + workload + ".json"
}

func printResult(w *os.File, r *result) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range r.Info {
		fmt.Fprintf(w, "%s (info) %s %.6g %s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s error_rate %g ratio n=%d\n", r.Workload, rate, r.Attempted)
	for _, e := range r.Examples {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, e)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// env records the conditions a set of numbers was taken under.
type env struct {
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1      float64 `json:"load1_at_start"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

func environment(rc runConfig) env {
	e := env{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: clients,
		Seed: rc.seed, Seconds: rc.seconds, Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339)}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &e.Load1)
	}
	// The build carries no revision (run.sh builds without one, so that a
	// checkout outside git builds the same binary): ask git, if there is one.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			e.Commit += "+modified"
		}
	}
	return e
}

// parent runs sets: it re-executes this binary once per workload, so every
// workload starts from a fresh heap and fresh package state and has its own
// peak memory.
type parent struct {
	rc    runConfig
	order []string
	env   env
}

func (p *parent) child(workload string, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(p.rc.seed),
		"-seconds", fmt.Sprint(p.rc.seconds), "-out", p.rc.outDir, "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if p.rc.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	// Pass the child's lines through, except the driver's result object.
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	for _, l := range lines[:max(len(lines)-1, 0)] {
		fmt.Println(l)
	}
	var res result
	b, err := os.ReadFile(filepath.Join(p.rc.outDir, childFile(workload, trace)))
	if err == nil {
		err = json.Unmarshal(b, &res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: no result (%v; child: %v)", workload, err, runErr)
	}
	return &res, nil
}

// set runs every workload once and returns the results in order.
func (p *parent) set(trace bool) ([]*result, int) {
	var results []*result
	code := 0
	for _, w := range p.order {
		res, err := p.child(w, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 2
			continue
		}
		if res.Failed > 0 || res.Attempted == 0 {
			code = max(code, 1)
		}
		results = append(results, res)
	}
	return results, code
}

// sets runs the untraced set, then the traced one if asked, and writes them
// to result.json beside the environment and the metric catalog: BENCHMARK.json
// has no room for what each metric means, its layer and what it should move,
// so the numbers carry them.
func (p *parent) sets(traced bool) int {
	doc := struct {
		Env       env            `json:"env"`
		Untraced  []*result      `json:"untraced,omitempty"`
		Traced    []*result      `json:"traced,omitempty"`
		Workloads []workloadSpec `json:"workloads"`
		EndToEnd  []e2eSpec      `json:"end_to_end"`
		PerLayer  []layerSpec    `json:"per_layer"`
	}{Env: p.env, Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer}
	var code int
	doc.Untraced, code = p.set(false)
	if traced {
		var c int
		doc.Traced, c = p.set(true)
		code = max(code, c)
		p.printShares(doc.Traced)
	}
	if err := writeJSON(filepath.Join(p.rc.outDir, "result.json"), doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if code == 1 {
		fmt.Println("FAIL: error_rate is not 0")
	}
	return code
}

// printShares prints each traced serve workload's blocking-path shares side
// by side: the peel's headline.
func (p *parent) printShares(traced []*result) {
	for _, r := range traced {
		var parts []string
		for _, m := range r.Metrics {
			if strings.HasPrefix(m.Name, "trace.") {
				parts = append(parts, fmt.Sprintf("%s=%.4g", strings.TrimPrefix(m.Name, "trace."), m.Value))
			}
		}
		fmt.Printf("%s trace: %s\n", r.Workload, strings.Join(parts, " "))
	}
}
