package experiments

import "sync"

// HostProcs bounds how many of one experiment's independent machine runs
// (multicore rows, filesys cells) execute concurrently on host goroutines.
// The default of 1 keeps rows strictly sequential; CLIs raise it via
// -hostprocs. Each row builds and drives a fully isolated machine and
// stores its result by row index, so the rendered report is byte-identical
// at any setting — like PoolOptions.Parallelism one level up, this knob
// only trades host cores for wall time.
var HostProcs = 1

// forEachRow runs n independent row builders with at most HostProcs in
// flight and returns the first error by row index (not completion order),
// so failures are as deterministic as results.
func forEachRow(n int, run func(i int) error) error {
	procs := HostProcs
	if procs < 1 {
		procs = 1
	}
	if procs == 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, procs)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
