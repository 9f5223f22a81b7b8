// Package runner executes batches of independent cluster experiments across
// a worker pool, with deterministic aggregation and content-addressed
// result caching.
//
// The paper's evaluation (and every sweep this repository grows) is a set
// of fully independent deterministic Run calls: each point is a pure
// function of its core.Config. That shape admits three mechanical wins the
// serial loops in the root package forgo:
//
//   - parallelism: points spread over GOMAXPROCS goroutines, each running
//     its own single-goroutine Cluster;
//   - caching: a point's Result is stored under the SHA-256 digest of its
//     canonical Config (core.Config.Digest), so re-running a suite after
//     editing one experiment re-executes only the changed points;
//   - failure isolation: a diverging or panicking config fails its point
//     (after bounded retries) without tearing down the whole suite.
//
// Determinism is preserved by construction: workers write each Result into
// the slot of its submitting index, so Run's output — and anything rendered
// from it — is byte-identical to a serial loop over the same jobs no matter
// how the scheduler interleaves workers. Progress callbacks, by contrast,
// fire in completion order; they are ephemeral UI, not results.
//
// The package deliberately never reads the wall clock (nicwarp-vet's
// walltime analyzer holds here): rates and ETAs are computed by the
// cmd-layer callers from their own clocks.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"nicwarp/internal/core"
)

// Job is one experiment point: a name for humans and logs, and the full
// configuration that defines the point's identity. Configs must not be
// shared mutably between jobs; the App value a Config carries is treated as
// immutable (every app in internal/apps is a pure parameter holder, and
// App.Build is required to return fresh objects per call).
type Job struct {
	// Name identifies the point in progress output and error messages,
	// e.g. "fig4/period=100/nic-gvt". Names should be unique in a batch.
	Name string
	// Config defines the experiment. Its digest is the cache key.
	Config core.Config
}

// Result is the outcome of one job.
type Result struct {
	// Job echoes the submitted job.
	Job Job
	// Key is the content address (core.Config.Digest) the point was cached
	// under.
	Key string
	// Res is the experiment result; nil when Err is set.
	Res *core.Result
	// Err is the final error after all retry attempts, or nil.
	Err error
	// Attempts is how many times the point was executed (0 on a cache hit).
	Attempts int
	// Cached reports that Res was served from the cache.
	Cached bool
}

// Progress is one progress notification. Notifications are delivered
// serially (never concurrently) but in completion order, which is
// scheduler-dependent; do not derive results from them.
type Progress struct {
	// Done counts finished points (including failures); Total is the batch
	// size.
	Done, Total int
	// Name, Cached and Err describe the point that just finished.
	Name   string
	Cached bool
	Err    error
}

// Runner executes job batches. The zero value runs on GOMAXPROCS workers,
// fails a point on its first error and has no cache.
type Runner struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Retries is the number of re-executions after a failed attempt; 0 or
	// less fails a point on its first error. Runs are deterministic, so a
	// retry can only help against environmental failures (memory
	// pressure), never a flake.
	Retries int
	// Cache, when non-nil, serves and stores results by config digest.
	Cache Cache
	// OnProgress, when non-nil, is invoked after each point completes.
	OnProgress func(Progress)
	// Exec is the execution strategy applied to every point (shard count
	// etc.). It deliberately never enters the cache key: core.Config.Digest
	// excludes execution strategy by construction, because a sharded run
	// commits byte-identical results to the serial run — so cache entries
	// written at one -shards value keep hitting at every other.
	Exec core.Exec
}

// Run executes the batch and returns one Result per job, in submission
// order. It never returns an error itself: per-point failures are recorded
// in their Result.
func (r *Runner) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
		idx  = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runOne(jobs[i])
				mu.Lock()
				done++
				if r.OnProgress != nil {
					res := &results[i]
					r.OnProgress(Progress{
						Done: done, Total: len(jobs),
						Name: res.Job.Name, Cached: res.Cached, Err: res.Err,
					})
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne resolves one point: cache lookup, then bounded-retry execution.
func (r *Runner) runOne(job Job) Result {
	res := Result{Job: job, Key: job.Config.Digest()}
	if r.Cache != nil {
		if cached, ok := r.Cache.Get(res.Key); ok {
			res.Res = cached
			res.Cached = true
			return res
		}
	}
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		out, err := execute(job.Config, r.Exec)
		if err == nil {
			res.Res, res.Err = out, nil
			if r.Cache != nil {
				r.Cache.Put(res.Key, out)
			}
			return res
		}
		res.Err = fmt.Errorf("runner: point %q attempt %d: %w", job.Name, attempt, err)
		if attempt > r.Retries {
			return res
		}
	}
}

// execute runs one cluster experiment, converting a panic anywhere in the
// assembly or run into an error so a broken point cannot take the suite's
// process down.
func execute(cfg core.Config, ex core.Exec) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment panicked: %v", p)
		}
	}()
	cl, err := core.NewClusterExec(cfg, ex)
	if err != nil {
		return nil, err
	}
	return cl.Run()
}

// CachedCount reports how many points were served from the cache.
func CachedCount(results []Result) int {
	n := 0
	for i := range results {
		if results[i].Cached {
			n++
		}
	}
	return n
}
