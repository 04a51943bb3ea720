package experiments

import "sync"

// forEachRow runs n independent row builders (multicore rows, serving
// cells) with at most width in flight and returns the first error by row
// index (not completion order), so failures are as deterministic as
// results. Each row builds and drives a fully isolated machine and stores
// its result by row index, so the rendered report is byte-identical at any
// width: like PoolOptions.Parallelism one level up, the width only trades
// host cores for wall time. RunPool derives it (rowWidth).
func forEachRow(width, n int, run func(i int) error) error {
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, width)
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
