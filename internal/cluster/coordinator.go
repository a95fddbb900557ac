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

	// maxDriverFailures is the consecutive failed-lease count after
	// which a driver declares its worker dead and exits; the remaining
	// drivers absorb the released and reclaimed parts.
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
	// LeaseTTL is how long a lease lives without a keepalive line
	// from its worker (DefaultLeaseTTL when zero). Workers send one
	// every LeaseTTL/3.
	LeaseTTL time.Duration
	// DataDir, when non-empty, journals plan and part completions
	// under <DataDir>/cluster so a coordinator restart resumes
	// without recomputing or double-counting finished parts.
	DataDir string
	// Client is the HTTP client for worker requests
	// (http.DefaultClient when nil). A lease's request lasts as long
	// as its part computes, so a client Timeout cuts parts that run
	// longer.
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
	if cfg.LeaseTTL < 3*minKeepalive {
		return nil, fmt.Errorf("cluster: lease TTL %v below %v: workers refuse a keepalive under %v", cfg.LeaseTTL, 3*minKeepalive, minKeepalive)
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
	// following lost leases (a stalled stream, a fenced straggler) let
	// go instead of outliving the job.
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

// drive is one worker's loop: acquire a part, stream it from the
// worker, resolve the lease, repeat. It exits when the job completes,
// the context dies, or the worker fails maxDriverFailures leases in a
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
		if c.run(ctx, url, spec, lease, tb, jr, fatal) {
			failures = 0
			continue
		}
		telemetry.ClusterWorkerFailures.Inc()
		failures++
		if failures >= maxDriverFailures || !sleepCtx(ctx, c.keepalive()) {
			return
		}
	}
}

// keepalive is the cadence of a worker's keepalive lines, and of a
// driver's check of its lease's deadline.
func (c *Coordinator) keepalive() time.Duration { return c.cfg.LeaseTTL / 3 }

// run hands one lease to the worker as a POST /work/run and resolves
// it from the streamed lines. It reports false when the worker let
// the lease down (the part is then back in the table). It hangs up
// before it returns, which stops the worker's computation.
func (c *Coordinator) run(ctx context.Context, url string, spec JobSpec, lease Lease, tb *table, jr *journal, fatal func(error)) bool {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	body, err := json.Marshal(runRequest{
		LeaseID:   lease.ID.String(),
		Job:       spec,
		First:     lease.First,
		Count:     lease.Count,
		Keepalive: c.keepalive(),
	})
	if err != nil {
		fatal(fmt.Errorf("cluster: encode run request: %w", err))
		return true
	}
	lines := make(chan runLine)
	go func() {
		defer close(lines)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/work/run", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			readLines(ctx, resp.Body, lines)
		}
	}()
	kept := c.resolve(ctx, lease, lines, tb, jr, fatal)
	cancel()
	for range lines { // the request is gone before run returns
	}
	return kept
}

// readLines decodes a /work/run stream onto lines until its final
// line, a read or decode error, or ctx ends. The caller reads a closed
// channel before a final line as a broken stream.
func readLines(ctx context.Context, r io.Reader, lines chan<- runLine) {
	dec := json.NewDecoder(r)
	for {
		var l runLine
		if dec.Decode(&l) != nil {
			return
		}
		select {
		case lines <- l:
		case <-ctx.Done():
			return
		}
		if l.final() {
			return
		}
	}
}

// resolve follows one lease's stream to its end. A keepalive renews
// the lease; once the part is done or the lease fenced, the stream is
// dropped. The final sums go through the fence (a fenced completion is
// counted stale) and then into the journal. An error line, a broken
// stream, or no line before the lease's deadline gives the part back
// and reports false. lines must close once ctx ends.
func (c *Coordinator) resolve(ctx context.Context, lease Lease, lines <-chan runLine, tb *table, jr *journal, fatal func(error)) bool {
	tick := time.NewTicker(c.keepalive())
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if c.cfg.Clock().After(lease.Expires) {
				giveBack(tb, lease, true)
				return false
			}
		case l, ok := <-lines:
			switch {
			case ctx.Err() != nil:
				return true // the job finished elsewhere, or was cancelled
			case !ok || l.Error != "":
				giveBack(tb, lease, false)
				return false
			case !l.final():
				exp, err := tb.Renew(lease)
				if err != nil {
					return true // ErrDone or ErrFenced: the lease is gone
				}
				lease.Expires = exp
			default:
				return c.accept(lease, l.Sums, tb, jr, fatal)
			}
		}
	}
}

// accept completes a lease with its sums through the fence, journals
// the part and reports progress. Sums that do not cover the lease's
// range give the part back and report false.
func (c *Coordinator) accept(lease Lease, sums []stochastic.ChunkSum, tb *table, jr *journal, fatal func(error)) bool {
	err := tb.Complete(lease, sums)
	switch {
	case errors.Is(err, ErrFenced), errors.Is(err, ErrDone):
		telemetry.ClusterStaleCompletions.Inc()
		return true
	case err != nil:
		giveBack(tb, lease, false)
		return false
	}
	if jr != nil {
		if err := jr.part(lease.Part, sums); err != nil {
			// Durability is gone; finishing the job could
			// double-count after a restart. Abort loudly.
			fatal(fmt.Errorf("cluster: journal part %d: %w", lease.Part, err))
			return true
		}
	}
	if cb := c.cfg.OnProgress; cb != nil {
		cb(tb.Progress())
	}
	return true
}

// giveBack returns a lost lease's part to the table for the next
// Acquire. A part that an expiry reclaim or another worker's
// completion has already taken stays as it is.
func giveBack(tb *table, lease Lease, expired bool) {
	if tb.Release(lease) != nil {
		return
	}
	telemetry.ClusterReassignments.Inc()
	if expired {
		telemetry.ClusterLeasesExpired.Inc()
	}
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
