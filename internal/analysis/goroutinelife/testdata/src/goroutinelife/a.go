// Fixture for goroutinelife: spawned goroutines need a shutdown edge.
package goroutinelife

type S struct {
	ch   chan int
	done chan struct{}
}

func work() {}

// spin is an endless loop with no way out.
func (s *S) spin() {
	for {
		work()
	}
}

// leakClosure spawns an endless closure.
func (s *S) leakClosure() {
	go func() { // want `goroutine has no shutdown edge`
		for {
			work()
		}
	}()
}

// leakNamed spawns the endless method by name; the call graph carries
// the evidence.
func (s *S) leakNamed() {
	go s.spin() // want `goroutine has no shutdown edge: spin reaches an endless for loop`
}

// leakNested reaches the endless loop through a helper call inside the
// closure.
func (s *S) leakNested() {
	go func() { // want `goroutine has no shutdown edge`
		s.spin()
	}()
}

// follow exits when the done channel fires: clean.
func (s *S) follow() {
	for {
		select {
		case <-s.done:
			return
		case v := <-s.ch:
			_ = v
		}
	}
}

func (s *S) okSelect() {
	go s.follow()
}

// okRange drains until the channel closes — the close is the shutdown
// edge: clean.
func (s *S) okRange() {
	go func() {
		for v := range s.ch {
			_ = v
		}
	}()
}

// okBounded runs a bounded loop and exits: clean.
func (s *S) okBounded() {
	go func() {
		for i := 0; i < 10; i++ {
			work()
		}
	}()
}

// okBreak leaves the endless loop through a conditional break: clean.
func (s *S) okBreak() {
	go func() {
		for {
			if len(s.ch) == 0 {
				break
			}
			work()
		}
	}()
}

// justified keeps a process-lifetime goroutine behind a written reason.
func (s *S) justified() {
	//lint:ignore goroutinelife process-lifetime ticker; the runtime reaps it at exit
	go s.spin()
}

// wrongHatch's directive names another analyzer, so it covers nothing here.
func (s *S) wrongHatch() {
	//lint:ignore determinism process-lifetime ticker; the runtime reaps it at exit
	go s.spin() // want `goroutine has no shutdown edge`
}
