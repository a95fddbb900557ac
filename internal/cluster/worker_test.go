package cluster

import (
	"context"
	"net/http"
	"testing"
	"time"

	"ddsim/internal/circuit"
)

// workerClient drives one worker's /work endpoints directly, one lease
// of a one-chunk job at a time.
type workerClient struct {
	t    *testing.T
	url  string
	rpc  *Coordinator // for its post helper
	spec JobSpec
}

func newWorkerClient(t *testing.T) (*workerClient, *Worker) {
	t.Helper()
	urls, workers, _ := startWorkers(t, 1)
	return &workerClient{
		t:    t,
		url:  urls[0],
		rpc:  &Coordinator{cfg: Config{Client: http.DefaultClient}},
		spec: benchSpec(t, circuit.GHZ(3), 8), // one chunk
	}, workers[0]
}

func (c *workerClient) lease(id Token) {
	c.t.Helper()
	req := leaseRequest{LeaseID: id.String(), Job: c.spec, First: 0, Count: 1}
	if err := c.rpc.post(context.Background(), c.url+"/work/lease", req, nil); err != nil {
		c.t.Fatalf("lease %v: %v", id, err)
	}
}

// waitDone polls the lease's heartbeat until its task has finished.
func (c *workerClient) waitDone(id Token) {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var hb heartbeatResponse
		if err := c.rpc.post(context.Background(), c.url+"/work/heartbeat", heartbeatRequest{LeaseID: id.String()}, &hb); err != nil {
			c.t.Fatalf("heartbeat %v: %v", id, err)
		}
		if hb.Phase == phaseDone {
			return
		}
		if hb.Phase == phaseFailed || time.Now().After(deadline) {
			c.t.Fatalf("lease %v: phase %q (%s)", id, hb.Phase, hb.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldTokens returns the tokens of the tasks the worker retains.
func heldTokens(w *Worker) map[Token]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	held := make(map[Token]bool, len(w.tasks))
	for id := range w.tasks {
		held[id] = true
	}
	return held
}

// TestWorkerForgetsCollectedLeases: a task whose sums the coordinator
// collected leaves nothing behind on the worker.
func TestWorkerForgetsCollectedLeases(t *testing.T) {
	c, w := newWorkerClient(t)
	for id := Token(1); id <= 200; id++ {
		c.lease(id)
		c.waitDone(id)
		var comp completeResponse
		if err := c.rpc.post(context.Background(), c.url+"/work/complete", completeRequest{LeaseID: id.String()}, &comp); err != nil {
			t.Fatalf("complete %v: %v", id, err)
		}
		if len(comp.Sums) != 1 {
			t.Fatalf("lease %v: %d sums, want 1", id, len(comp.Sums))
		}
	}
	if held := heldTokens(w); len(held) != 0 {
		t.Fatalf("worker retains %d tasks after every lease was collected", len(held))
	}
}

// TestWorkerEvictsOldestIdleTasks: past maxWorkerTasks uncollected
// tasks, the worker drops finished tasks smallest token first and
// keeps every running one, however old.
func TestWorkerEvictsOldestIdleTasks(t *testing.T) {
	const running, total = 10, maxWorkerTasks + 6
	c, w := newWorkerClient(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	w.Gate = func(id Token, _ int) {
		if id <= running {
			<-release
		}
	}
	for id := Token(1); id <= total; id++ {
		c.lease(id)
		if id > running {
			c.waitDone(id)
		}
	}
	held := heldTokens(w)
	if len(held) != maxWorkerTasks {
		t.Fatalf("worker retains %d tasks, want %d", len(held), maxWorkerTasks)
	}
	for id := Token(1); id <= total; id++ {
		evicted := id > running && id <= total-maxWorkerTasks+running
		if held[id] == evicted {
			t.Errorf("task %v: retained %v, want %v", id, held[id], !evicted)
		}
	}
}
