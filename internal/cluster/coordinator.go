package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

// Coordinator defaults; override through Config.
const (
	DefaultLeaseTTL = 10 * time.Second

	// maxDriverFailures is the consecutive lease-RPC-failure count
	// after which a driver declares its worker dead and exits; the
	// remaining drivers absorb the released and reclaimed parts.
	maxDriverFailures = 5

	// acquirePollEvery paces a driver's retry when every part is
	// currently leased by other drivers.
	acquirePollEvery = 2 * time.Millisecond
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the base URLs of the worker endpoints
	// (e.g. http://host:7421), one driver each.
	Workers []string
	// LeaseTTL is how long a lease lives without a renewal
	// (DefaultLeaseTTL when zero).
	LeaseTTL time.Duration
	// HeartbeatEvery paces lease heartbeats (LeaseTTL/3 when zero).
	HeartbeatEvery time.Duration
	// DataDir, when non-empty, journals plan and part completions
	// under <DataDir>/cluster so a coordinator restart resumes
	// without recomputing or double-counting finished parts.
	DataDir string
	// Client is the HTTP client for worker RPCs (http.DefaultClient
	// when nil).
	Client *http.Client
	// Clock supplies the coordinator's notion of now for lease expiry
	// (time.Now when nil); tests inject a manual clock.
	Clock func() time.Time
	// OnProgress, when non-nil, receives completed/total chunk counts
	// after every accepted part.
	OnProgress func(doneChunks, totalChunks int)
}

// Coordinator shards jobs across a fixed set of workers. One
// Coordinator may run many jobs, sequentially or concurrently; each
// Run owns its lease table and journal.
type Coordinator struct {
	cfg Config
}

// New validates cfg and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.LeaseTTL / 3
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Coordinator{cfg: cfg}, nil
}

// Run executes one job across the cluster and returns its result (see
// the package comment for what it reproduces). jobID keys the
// journal; rerunning a jobID whose journal survives a restart resumes
// where the previous incarnation durably left off.
func (c *Coordinator) Run(ctx context.Context, jobID string, spec JobSpec) (*stochastic.Result, error) {
	started := time.Now()
	job, err := spec.Job()
	if err != nil {
		return nil, err
	}
	plan, err := stochastic.PlanChunks(job)
	if err != nil {
		return nil, err
	}

	var jr *journal
	var restored map[int][]stochastic.ChunkSum
	if c.cfg.DataDir != "" {
		var head *journalEntry
		jr, head, restored, err = openJournal(c.cfg.DataDir, jobID)
		if err != nil {
			return nil, err
		}
		defer jr.close()
		if head != nil && !specsEqual(*head.Spec, spec) {
			return nil, fmt.Errorf("cluster: journal for job %s belongs to a different spec; remove it or use a fresh job id", jobID)
		}
		if head == nil || head.Plan == nil || *head.Plan != plan {
			// A fresh journal, or one cut into other parts (an older
			// build's lease size) that cannot resume: start over. The
			// plan goes durable before any lease.
			if err := jr.plan(spec, plan); err != nil {
				return nil, err
			}
			restored = nil
		}
	}

	tb := newTable(plan, c.cfg.LeaseTTL, c.cfg.Clock)
	for idx, sums := range restored {
		if err := tb.restore(idx, sums); err != nil {
			return nil, err
		}
	}
	if cb := c.cfg.OnProgress; cb != nil {
		cb(tb.Progress())
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var fatalOnce sync.Once
	var fatalErr error
	fatal := func(err error) {
		fatalOnce.Do(func() {
			fatalErr = err
			cancel()
		})
	}
	var wg sync.WaitGroup
	for _, url := range c.cfg.Workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			c.drive(runCtx, url, spec, tb, jr, fatal)
		}(url)
	}
	// Once every part is in, cancel the run context so drivers still
	// tending lost leases (a dead worker's heartbeat loop, a fenced
	// straggler) let go instead of outliving the job.
	go func() {
		for !tb.Done() {
			if !sleepCtx(runCtx, acquirePollEvery) {
				return
			}
		}
		cancel()
	}()
	wg.Wait()

	if fatalErr != nil {
		return nil, fatalErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !tb.Done() {
		done, total := tb.Progress()
		return nil, fmt.Errorf("cluster: job %s stalled at %d/%d chunks: every worker failed", jobID, done, total)
	}
	sums, err := tb.Sums()
	if err != nil {
		return nil, err
	}
	res, err := stochastic.ReduceChunks(job, sums, len(c.cfg.Workers))
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(started)
	if jr != nil {
		// The job is finished and its result now belongs to the
		// caller's durability domain (ddsimd persists it as a Final);
		// the journal has served its purpose.
		jr.close()
		if err := jr.remove(); err != nil {
			return nil, fmt.Errorf("cluster: remove finished journal: %w", err)
		}
	}
	return res, nil
}

// drive is one worker's loop: acquire a part, hand it to the worker,
// tend the lease to resolution, repeat. It exits when the job
// completes, the context dies, or the worker fails too many RPCs in a
// row.
func (c *Coordinator) drive(ctx context.Context, url string, spec JobSpec, tb *table, jr *journal, fatal func(error)) {
	failures := 0
	for ctx.Err() == nil && !tb.Done() {
		lease, ok := tb.Acquire(url)
		if !ok {
			if !sleepCtx(ctx, acquirePollEvery) {
				return
			}
			continue
		}
		req := leaseRequest{LeaseID: lease.ID.String(), Job: spec, First: lease.First, Count: lease.Count}
		if err := c.post(ctx, url+"/work/lease", req, nil); err != nil {
			telemetry.ClusterWorkerFailures.Inc()
			// The grant never reached a live worker (or the reply was
			// lost — idempotent on the worker side); put the part back.
			_ = tb.Release(lease)
			failures++
			if failures >= maxDriverFailures {
				return
			}
			if !sleepCtx(ctx, c.cfg.HeartbeatEvery) {
				return
			}
			continue
		}
		failures = 0
		c.tend(ctx, url, lease, tb, jr, fatal)
	}
}

// tend heartbeats one granted lease until it resolves: completed
// (sums accepted and journaled), failed (released for another
// worker), lost (expired on a dead heartbeat path — the table
// reclaims it and the tender gives up one extra TTL later), or
// fenced (the tender keeps following the worker and delivers the late
// completion anyway, letting the fence reject it — which keeps the
// worker's task map drained and the stale-completion counter honest).
//
// Once the lease passes its deadline the tender stops renewing for
// good, even if heartbeats recover: the part may have been reclaimed,
// and only the table knows — renewing would race the reclaim, whereas
// following to completion resolves through the fence either way.
func (c *Coordinator) tend(ctx context.Context, url string, lease Lease, tb *table, jr *journal, fatal func(error)) {
	fenced := false
	for {
		if !sleepCtx(ctx, c.cfg.HeartbeatEvery) {
			return
		}
		var hb heartbeatResponse
		if err := c.post(ctx, url+"/work/heartbeat", heartbeatRequest{LeaseID: lease.ID.String()}, &hb); err != nil {
			telemetry.ClusterWorkerFailures.Inc()
			if c.cfg.Clock().After(lease.Expires) {
				fenced = true // expired: never renew again
				if c.cfg.Clock().After(lease.Expires.Add(c.cfg.LeaseTTL)) {
					// A full TTL past the deadline and still no
					// answer: the worker is gone. Acquire has (or
					// will) reclaim the part.
					return
				}
			}
			continue
		}
		if !fenced && c.cfg.Clock().After(lease.Expires) {
			fenced = true
		}
		switch hb.Phase {
		case phaseFailed:
			if !fenced {
				_ = tb.Release(lease)
			}
			return
		case phaseRunning:
			if fenced {
				continue
			}
			switch exp, err := tb.Renew(lease); {
			case err == nil:
				lease.Expires = exp
			case errors.Is(err, ErrDone):
				return // another worker finished the part
			default:
				// Reassigned under us; keep tending so the late
				// completion is still collected (and fenced).
				fenced = true
			}
		case phaseDone:
			var comp completeResponse
			if err := c.post(ctx, url+"/work/complete", completeRequest{LeaseID: lease.ID.String()}, &comp); err != nil {
				telemetry.ClusterWorkerFailures.Inc()
				if fenced {
					return // best-effort collection only
				}
				if c.cfg.Clock().After(lease.Expires) {
					return
				}
				continue
			}
			err := tb.Complete(lease, comp.Sums)
			switch {
			case errors.Is(err, ErrFenced), errors.Is(err, ErrDone):
				telemetry.ClusterStaleCompletions.Inc()
				return
			case err != nil:
				// Malformed sums: burn the lease and re-simulate.
				_ = tb.Release(lease)
				telemetry.ClusterWorkerFailures.Inc()
				return
			}
			if jr != nil {
				if jerr := jr.part(lease.Part, comp.Sums); jerr != nil {
					// Durability is gone; finishing the job could
					// double-count after a restart. Abort loudly.
					fatal(fmt.Errorf("cluster: journal part %d: %w", lease.Part, jerr))
					return
				}
			}
			if cb := c.cfg.OnProgress; cb != nil {
				cb(tb.Progress())
			}
			return
		default:
			telemetry.ClusterWorkerFailures.Inc()
			return
		}
	}
}

// post sends one JSON RPC; out may be nil for 202-style replies.
func (c *Coordinator) post(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var e errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("cluster: %s: %s (%s)", url, e.Error, resp.Status)
		}
		return fmt.Errorf("cluster: %s: %s", url, resp.Status)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// specsEqual compares two specs by canonical JSON (Options carries no
// unserialisable state on the wire).
func specsEqual(a, b JobSpec) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// sleepCtx sleeps d or until ctx dies; false means the context died.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
