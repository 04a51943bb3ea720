package experiments

import "sync"

// forEachRow runs run on every cell — specs in RunPool, independent row
// builders (multicore rows, serving cells) inside a spec — with at most
// width in flight, and returns the rows in cell order or the first error
// by cell index (not completion order), so failures are as deterministic
// as results. At width 1 it is a plain in-order loop. Each cell builds
// and drives fully isolated machines, so the rendered report is
// byte-identical at any width: the width only trades host cores for wall
// time.
func forEachRow[C, R any](width int, cells []C, run func(C) (R, error)) ([]R, error) {
	rows := make([]R, len(cells))
	errs := make([]error, len(cells))
	if width <= 1 {
		for i, c := range cells {
			if rows[i], errs[i] = run(c); errs[i] != nil {
				return nil, errs[i]
			}
		}
		return rows, nil
	}
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rows[i], errs[i] = run(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
