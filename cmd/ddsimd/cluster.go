// Cluster modes of ddsimd. The same binary serves three roles:
//
//   - default: the single-node service — every job simulates on the
//     local worker pool;
//   - -worker: a stateless computation worker — no job table, no
//     store, no cache; it serves only POST /work/run, computing one
//     leased chunk range per request and streaming its sums back;
//   - -coordinator <urls>: the ordinary job API, but every
//     stochastic job is fanned out to the given workers through
//     internal/cluster — the parts of the job's plan are leased under
//     fencing tokens, each lease renewed by its stream's keepalive
//     lines, and the per-chunk sums merge in chunk order, so a cluster run reproduces itself for the same
//     job, and matches local simulation on statevec, sparse and
//     cache-resident DDs (TestClusterModeBitIdentical). Exact-mode
//     jobs stay on the local path.
package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"ddsim"
	"ddsim/internal/cluster"
	"ddsim/internal/stochastic"
)

// runWorker is the -worker mode main loop: serve the work plane until
// the signal context fires, then let in-flight leases finish for up
// to 10 s and cut the rest, whose coordinators re-lease them.
func runWorker(ctx context.Context, addr string) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           workerHandler(cluster.NewWorker(ddsim.Factory)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ddsimd: cluster worker listening on %s\n", addr)
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if srv.Shutdown(shutCtx) != nil {
			_ = srv.Close() // the drain timed out: hang up on the rest
		}
		fmt.Fprintln(os.Stderr, "ddsimd: worker drained, bye")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ddsimd:", err)
			os.Exit(1)
		}
	}
}

// clusterSpec builds the wire form of one noise point of a job. A
// circuit that arrived as inline QASM ships as the submitted text;
// built-in benchmark circuits are serialised — either way coordinator
// and workers parse the same source and derive the identical chunk
// plan.
func clusterSpec(j *job, model ddsim.NoiseModel) (cluster.JobSpec, error) {
	src := j.spec.Circuit.QASM
	if src == "" {
		var err error
		src, err = ddsim.WriteQASM(j.circ)
		if err != nil {
			return cluster.JobSpec{}, fmt.Errorf("serialise circuit for cluster dispatch: %w", err)
		}
	}
	opts := j.spec.Options
	opts.OnProgress = nil // progress flows through cluster.Config.OnProgress
	return cluster.JobSpec{
		Name:    j.circName,
		QASM:    src,
		Backend: j.backend,
		Noise:   model,
		Options: opts,
	}, nil
}

// runOnCluster executes a stochastic job by leasing its chunk ranges
// to the configured workers, one coordinator run per noise point.
// With -data-dir set each point journals under <data-dir>/cluster, so
// a restarted server that re-queues the job resumes the journal
// instead of recomputing finished parts. On error the results
// completed so far are returned alongside it (nil entries for the
// rest), mirroring the local batch path under cancellation.
func (s *server) runOnCluster(j *job) ([]*ddsim.Result, error) {
	results := make([]*ddsim.Result, len(j.models))
	start := time.Now()
	for i, m := range j.models {
		spec, err := clusterSpec(j, m)
		if err != nil {
			return results, err
		}
		job, err := spec.Job()
		if err != nil {
			return results, err
		}
		plan, err := stochastic.PlanChunks(job)
		if err != nil {
			return results, err
		}
		point := i
		cfg := *s.clusterCfg
		cfg.OnProgress = func(done, _ int) {
			j.publish(ddsim.Progress{
				Job:     point,
				Done:    min(done*plan.ChunkSize, plan.Target),
				Target:  plan.Target,
				Elapsed: time.Since(start),
			})
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return results, err
		}
		res, err := coord.Run(j.ctx, fmt.Sprintf("%s-p%d", j.id, point), spec)
		if err != nil {
			return results, fmt.Errorf("noise point %d: %w", point, err)
		}
		results[point] = res
	}
	return results, nil
}
