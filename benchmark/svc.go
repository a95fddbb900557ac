package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ddsim/internal/noise"
	"ddsim/internal/stochastic"
)

const (
	// svcWarmupJobs run untimed, from one client, before the timed
	// blocks.
	svcWarmupJobs = 50
	// svcDuplicates is how many timed submissions are sent again at the
	// end; each must come back from the result cache byte-identical.
	svcDuplicates = 20
	// buildDir holds the ddsimd binary and the data directories, inside
	// the checkout.
	buildDir = ".bench_build"
)

// server is one ddsimd child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
}

// buildServer compiles cmd/ddsimd from the checkout's own source.
func buildServer(ctx context.Context, repo string) (string, error) {
	bin := filepath.Join(repo, buildDir, "ddsimd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ddsimd")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ddsimd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs ddsimd over dataDir and waits for /healthz to
// answer 200; it returns the seconds from exec to that answer.
func startServer(ctx context.Context, bin, dataDir string) (*server, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-data-dir", dataDir,
		"-max-active", "2", "-workers", "1", "-max-jobs", "0")
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", benchProcs))
	s.cmd.Stderr = &s.stderr
	// The child must not outlive the benchmark, even if that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child carries no news
		close(s.exited)
	}()
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("ddsimd exited during start-up:\n%s", s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 20*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("ddsimd not healthy after 20s:\n%s", s.stderr.String())
		}
	}
}

// stop ends the child — SIGTERM first, so the store closes cleanly,
// SIGKILL if it lingers — and returns once it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has exited already
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuSeconds reads the child's user+system time from /proc.
func (s *server) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks of 10 ms.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// healthz returns the numeric fields of /healthz.
func (s *server) healthz() (map[string]any, error) {
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h map[string]any
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// scrape reads /metrics into name → value; labelled series keep their
// label text in the name.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m, sc.Err()
}

// svcSpec is the POST /jobs body.
type svcSpec struct {
	Circuit struct {
		QASM string `json:"qasm"`
	} `json:"circuit"`
	Backend string             `json:"backend"`
	Noise   noise.Model        `json:"noise"`
	Options stochastic.Options `json:"options"`
}

// svcJob is what a client observed of one job, in seconds from the
// moment it began to submit.
type svcJob struct {
	id                        string
	begin                     time.Time
	submit, firstEvent, total float64
	cached                    bool
	results                   json.RawMessage
	rejected                  bool
}

// runJob submits one job and follows its event stream to the terminal
// event, as a closed-loop client does.
func runJob(base string, body []byte) (svcJob, error) {
	j := svcJob{begin: time.Now()}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.submit = time.Since(j.begin).Seconds()
	if err != nil {
		return j, err
	}
	if resp.StatusCode != http.StatusAccepted {
		j.rejected = resp.StatusCode == http.StatusTooManyRequests
		return j, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(reply))
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &accepted); err != nil || accepted.ID == "" {
		return j, fmt.Errorf("POST /jobs: bad reply %q", reply)
	}
	j.id = accepted.ID

	stream, err := http.Get(base + "/jobs/" + j.id + "/events")
	if err != nil {
		return j, err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return j, fmt.Errorf("GET /jobs/%s/events: %s", j.id, stream.Status)
	}
	r := bufio.NewReader(stream.Body)
	event := ""
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return j, fmt.Errorf("job %s: stream ended before the result event: %w", j.id, err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
			if j.firstEvent == 0 {
				j.firstEvent = time.Since(j.begin).Seconds()
			}
		case bytes.HasPrefix(line, []byte("data: ")) && event == "result":
			j.total = time.Since(j.begin).Seconds()
			var view struct {
				Status  string          `json:"status"`
				Cached  bool            `json:"cached"`
				Results json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(line[len("data: "):], &view); err != nil {
				return j, fmt.Errorf("job %s: bad result event: %w", j.id, err)
			}
			j.cached, j.results = view.Cached, view.Results
			if view.Status != "done" {
				return j, fmt.Errorf("job %s ended %q", j.id, view.Status)
			}
			return j, nil
		}
	}
}

// svcRun is the state of one service workload run.
type svcRun struct {
	rep      *report
	base     string
	spec     svcSpec
	nextSeed int64
	rejected int
	// done keeps every finished timed job for the trace file; sent keeps
	// the most recent bodies with their result bytes for the duplicate
	// check.
	mu   sync.Mutex
	done []svcJob
	sent []sentJob
}

type sentJob struct {
	body    []byte
	results json.RawMessage
}

// body renders the next job: same circuit and noise, a seed of its
// own, so that no timed job can be served from the result cache.
func (r *svcRun) body() []byte {
	r.mu.Lock()
	r.spec.Options.Seed = r.nextSeed
	r.nextSeed++
	out, err := json.Marshal(r.spec)
	r.mu.Unlock()
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return out
}

// client runs n jobs one after another and returns their latencies.
func (r *svcRun) client(n int, keep bool) []float64 {
	var lat []float64
	for i := 0; i < n; i++ {
		body := r.body()
		j, err := runJob(r.base, body)
		r.mu.Lock()
		r.rep.op(err)
		if j.rejected {
			r.rejected++
		}
		if err == nil {
			lat = append(lat, j.total)
			if keep {
				r.sent = append(r.sent, sentJob{body, j.results})
				j.results = nil // thousands of jobs are kept for the trace; their payloads are not
				r.done = append(r.done, j)
				if len(r.sent) > svcDuplicates {
					r.sent = r.sent[1:]
				}
			}
		}
		r.mu.Unlock()
	}
	return lat
}

// block runs one timed block: clients closed-loop clients, each doing
// jobs jobs.
func (r *svcRun) block(s *server, clients, jobs int, into *modeSamples) {
	cpu0 := s.cpuSeconds()
	lats := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c] = r.client(jobs, true)
		}(c)
	}
	wg.Wait()
	for _, l := range lats {
		into.wall = append(into.wall, l...)
	}
	into.cpu += s.cpuSeconds() - cpu0
}

// runService runs the service workload against a ddsimd child built
// from the checkout. Every exit path stops the child and removes its
// data directory.
func runService(w workload, seed int64, seconds float64, trace bool, repo, outDir string) (rep *report, err error) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rep = newReport()
	in, err := prepare(w, w.Qubits, w.Runs, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(repo, buildDir), 0o755); err != nil {
		return nil, err
	}
	buildStart := time.Now()
	bin, err := buildServer(ctx, repo)
	if err != nil {
		return nil, err
	}
	fmt.Printf("built %s in %.1fs\n", bin, time.Since(buildStart).Seconds())

	run := &svcRun{rep: rep, nextSeed: seed * 1_000_000}
	run.spec.Circuit.QASM = in.src
	run.spec.Backend = w.Backend
	run.spec.Noise = in.model
	run.spec.Options = in.opts

	// Set-up: a fresh data directory, exec to /healthz 200, one cold
	// job. The last of the setupReps servers stays up for the run.
	var srv *server
	var dataDir string
	defer func() {
		if srv != nil {
			srv.stop()
		}
		if dataDir != "" {
			if rmErr := os.RemoveAll(dataDir); rmErr != nil && err == nil {
				err = rmErr
			}
		}
	}()
	var setups, startups []float64
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
			if err := os.RemoveAll(dataDir); err != nil {
				return rep, err
			}
		}
		start := time.Now()
		if dataDir, err = os.MkdirTemp(filepath.Join(repo, buildDir), "svc-data-"); err != nil {
			return rep, err
		}
		var startup float64
		if srv, startup, err = startServer(ctx, bin, dataDir); err != nil {
			return rep, err
		}
		_, err := runJob(srv.base, run.body())
		setups = append(setups, time.Since(start).Seconds())
		startups = append(startups, startup)
		rep.op(err)
		if err != nil {
			return rep, fmt.Errorf("cold job: %w", err)
		}
	}
	fmt.Printf("setups %.4f\n", setups)
	rep.set("setup_s", median(setups))
	rep.set("harness.setup_cold_s", setups[0])
	rep.set("svc.startup_ms", 1e3*median(startups))
	run.base = srv.base

	if lat := run.client(svcWarmupJobs, false); len(lat) < svcWarmupJobs {
		return rep, fmt.Errorf("warm-up: %d of %d jobs failed", svcWarmupJobs-len(lat), svcWarmupJobs)
	}
	for {
		h, err := srv.healthz()
		if err != nil {
			return rep, err
		}
		if h["jobs_running"] == 0.0 && h["jobs_queued"] == 0.0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var before map[string]float64
	if trace {
		if before, err = srv.scrape(); err != nil {
			return rep, err
		}
	}
	var c1, c2 modeSamples
	// The job count is pinned for one more reason here: ddsimd retains
	// every job, so its peak RSS grows with the count.
	start := time.Now()
	for i := 0; i < w.timedBlocks(seconds) && ctx.Err() == nil; i++ {
		run.block(srv, 1, w.Block, &c1)
		run.block(srv, 2, w.Block, &c2)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if len(c1.wall) == 0 || len(c2.wall) == 0 {
		return rep, errors.New("no timed job succeeded")
	}
	harness(rep, c1, c2, 2, fastDecile)

	if trace {
		after, err := srv.scrape()
		if err != nil {
			return rep, err
		}
		run.serviceLayers(before, after)
		if err := microbench(rep, w, in); err != nil {
			return rep, err
		}
	}

	// Duplicates: the most recent timed submissions, sent again, must
	// be answered from the result cache with the very same bytes.
	var hits []float64
	for _, s := range run.sent {
		j, err := runJob(srv.base, s.body)
		rep.op(err)
		if err != nil {
			continue
		}
		rep.check(j.cached, "duplicate of a finished job was simulated again (job %s)", j.id)
		rep.check(bytes.Equal(j.results, s.results), "duplicate job %s returned different result bytes", j.id)
		hits = append(hits, 1e3*j.total)
	}
	rep.set("svc.cache_hit_ms", median(hits))

	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return rep, err
	}
	rep.set("peak_rss_mb", rss)

	if trace {
		// Recovery: restart over the populated data directory.
		probe := run.done[len(run.done)-1].id
		srv.stop()
		var recovery float64
		if srv, recovery, err = startServer(ctx, bin, dataDir); err != nil {
			return rep, fmt.Errorf("restart: %w", err)
		}
		rep.set("svc.recovery_ms", 1e3*recovery)
		resp, err := http.Get(srv.base + "/jobs/" + probe)
		if err == nil {
			var view struct {
				Status string `json:"status"`
			}
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			rep.check(err == nil && view.Status == "done", "job %s after restart: status %q, err %v", probe, view.Status, err)
		} else {
			rep.op(err)
		}
		path, err := writeTrace(outDir, w.Name, run.traceFile(w.Name, seed, start))
		if err != nil {
			return rep, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace %s\n", path)
	}
	return rep, nil
}

// serviceLayers fills svc.* (and the dd/stochastic counts the child
// exports) from the client's own observations and the difference of
// two /metrics scrapes around the timed blocks.
func (r *svcRun) serviceLayers(before, after map[string]float64) {
	rep := r.rep
	d := func(name string) float64 { return after[name] - before[name] }
	meanMs := func(hist string) float64 { return 1e3 * ratio(d(hist+"_sum"), d(hist+"_count")) }
	jobs := float64(len(r.done))
	var submit, first, total []float64
	for _, j := range r.done {
		submit = append(submit, 1e3*j.submit)
		first = append(first, 1e3*j.firstEvent)
		total = append(total, 1e3*j.total)
	}
	rep.set("svc.submit_ms", median(submit))
	rep.set("svc.first_event_ms", median(first))
	rep.set("svc.queue_wait_ms", meanMs("ddsim_queue_wait_seconds"))
	rep.set("svc.simulate_ms", meanMs("ddsim_simulate_seconds"))
	rep.set("svc.persist_ms", meanMs("ddsim_persist_seconds"))
	rep.set("svc.server_e2e_ms", meanMs("ddsim_e2e_seconds"))
	rep.set("svc.http_overhead_ms", mean(total)-meanMs("ddsim_e2e_seconds"))
	rep.set("svc.rescache_hit_rate", ratio(d("ddsim_rescache_hits_total"),
		d("ddsim_rescache_hits_total")+d("ddsim_rescache_misses_total")))
	rep.set("svc.wal_appends_per_job", d("ddsim_jobstore_wal_appends_total")/jobs)
	rep.set("svc.timewheel_fired_per_job", d("ddsim_timewheel_fired")/jobs)
	rep.set("svc.sse_keepalives", d("ddsim_sse_keepalives_total"))
	rep.set("svc.rejected_429", float64(r.rejected))
	rep.set("svc.go_gc_cycles_per_kjob", 1e3*d("go_gc_cycles_total")/jobs)

	traj := d("ddsim_trajectories_total")
	rep.set("stochastic.traj_us", 1e6*ratio(d("ddsim_simulate_seconds_sum"), traj))
	rep.set("stochastic.gates_applied_per_traj", ratio(d("ddsim_gate_applications_total"), traj))
	rep.set("stochastic.gates_skipped_frac", ratio(d("ddsim_checkpoint_gates_skipped_total"),
		d("ddsim_gate_applications_total")+d("ddsim_checkpoint_gates_skipped_total")))
	rep.set("stochastic.forks_per_traj", ratio(d("ddsim_checkpoint_forks_total"), traj))
	rep.set("stochastic.checkpoints_per_job", d(`ddsim_checkpoints_total{kind="prefix"}`)/jobs)
	rep.set("dd.unique_lookups_per_traj", ratio(d("ddsim_dd_unique_lookups_total"), traj))
	rep.set("dd.unique_hit_rate", ratio(d("ddsim_dd_unique_hits_total"), d("ddsim_dd_unique_lookups_total")))
	rep.set("dd.compute_lookups_per_traj", ratio(d("ddsim_dd_compute_lookups_total"), traj))
	rep.set("dd.compute_hit_rate", ratio(d("ddsim_dd_compute_hits_total"), d("ddsim_dd_compute_lookups_total")))
	rep.set("dd.compute_conflicts_per_traj", ratio(d("ddsim_dd_compute_conflicts_total"), traj))
	rep.set("dd.nodes_created_per_traj", ratio(d("ddsim_dd_nodes_created_total"), traj))
	rep.set("dd.gc_runs_per_job", d("ddsim_dd_gc_runs_total")/jobs)
	rep.set("dd.probe_len_mean", ratio(d("ddsim_dd_unique_probe_len_sum"), d("ddsim_dd_unique_probe_len_count")))
	rep.set("dd.peak_nodes", after["ddsim_dd_peak_nodes"])
	rep.set("dd.probe_len_max", after["ddsim_dd_unique_max_probe"])
	rep.set("dd.unique_load", after["ddsim_dd_unique_load_factor"])
}

// traceFile renders the client's spans: per job, the whole journey as
// the parent, the submission and the wait for the first event.
func (r *svcRun) traceFile(workload string, seed int64, epoch time.Time) traceFile {
	f := traceFile{Workload: workload, Seed: seed,
		Note: "client-side spans, ns since the first timed block; server-side phase means are the svc.* metrics"}
	for i, j := range r.done {
		t0 := int64(j.begin.Sub(epoch))
		ns := func(sec float64) int64 { return t0 + int64(sec*1e9) }
		parent := "job-" + j.id
		f.Jobs = append(f.Jobs, traceJob{
			Span: traceSpan{Name: parent, StartNs: t0, EndNs: ns(j.total), Job: i},
			Spans: []traceSpan{
				{Name: "submit", StartNs: t0, EndNs: ns(j.submit), Job: i, Parent: parent},
				{Name: "first_event", StartNs: ns(j.submit), EndNs: ns(j.firstEvent), Job: i, Parent: parent},
				{Name: "terminal_event", StartNs: ns(j.firstEvent), EndNs: ns(j.total), Job: i, Parent: parent},
			},
		})
	}
	return f
}
