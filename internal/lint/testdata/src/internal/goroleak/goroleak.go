// Package goroleak is a lint fixture: goroutines launched in loops must
// be joinable or abortable.
package goroleak

import "sync"

func work() {}

// FanOut launches unjoinable goroutines in a loop.
func FanOut(jobs []int) {
	for range jobs {
		go func() {
			work()
		}()
	}
}

// FanOutJoined pairs a per-iteration Add with a deferred Done.
func FanOutJoined(jobs []int) {
	var wg sync.WaitGroup
	for range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// AddUpFront hoists one Add call before the loop.
func AddUpFront(jobs []int) {
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for range jobs {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// MissingAdd calls Done in the goroutine, but Add only happens on one
// path to the launch.
func MissingAdd(jobs []int, ready bool) {
	var wg sync.WaitGroup
	if ready {
		wg.Add(len(jobs))
	}
	for range jobs {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// Abortable can always be released through the abort channel.
func Abortable(jobs []int, abort <-chan struct{}) {
	for range jobs {
		go func() {
			select {
			case <-abort:
			}
		}()
	}
}

// Drainer ranges over a channel the producer closes.
func Drainer(outs []chan int) {
	for _, ch := range outs {
		go func() {
			for range ch {
			}
		}()
	}
}

// Named launches a function the analyzer cannot see into.
func Named(jobs []int) {
	for range jobs {
		go work()
	}
}

// NamedJustified is the same launch with a written justification.
func NamedJustified(jobs []int) {
	for range jobs {
		//lint:ignore goroleak fixture: work returns immediately; bounded by the test
		go work()
	}
}

// SingleShot is not in a loop; launching one goroutine is fine.
func SingleShot() {
	go func() {
		work()
	}()
}

// AddAfterGoRange adds to the WaitGroup only after each launch: the
// first goroutine can call Done before any Add.
func AddAfterGoRange(jobs []int) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		go func() {
			defer wg.Done()
			use(j)
		}()
		wg.Add(1)
	}
	wg.Wait()
}

// AddAfterGoRangeIf is the same launch with the late Add under a
// condition.
func AddAfterGoRangeIf(jobs []int, ready bool) {
	var wg sync.WaitGroup
	for i, j := range jobs {
		go func() {
			defer wg.Done()
			use(i + j)
		}()
		if ready {
			wg.Add(1)
		}
	}
	wg.Wait()
}

// AddBeforeGoRange is the correct order, with the key and value in use.
func AddBeforeGoRange(jobs []int) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			use(j)
		}()
	}
	wg.Wait()
}

func use(int) {}
