// Package fixture exercises the lockheld check.
package fixture

import (
	"os"
	"sync"
	"time"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

func (s *store) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "mu held across a sleep"
	s.mu.Unlock()
}

func (s *store) sendUnderDeferredUnlock(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock() // defer means held for the whole body
	ch <- 1             // want "mu held across a channel send"
}

func (s *store) recvUnderRLock(ch chan int) int {
	s.rw.RLock()
	v := <-ch // want "rw held across a channel receive"
	s.rw.RUnlock()
	return v
}

func (s *store) selectUnderLock(a, b chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "mu held across a blocking select"
	case <-a:
	case <-b:
	}
}

// Narrowed critical section: the lock is released before the send.
func (s *store) narrow(ch chan int) {
	s.mu.Lock()
	s.data["k"]++
	s.mu.Unlock()
	ch <- 1
}

// A select with a default never blocks.
func (s *store) tryDrain(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-ch:
		s.data["k"]++
	default:
	}
}

// The spawn itself does not block; the goroutine's ops are not this
// flow's.
func (s *store) spawnUnderLock(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go send(ch)
}

func send(ch chan int) { ch <- 1 }

// Interprocedural: the fsync is two module-local calls away, resolved
// through blocking summaries.
func (s *store) persist(f *os.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeDurably(f) // want "mu held across writeDurably → flush → an fsync"
}

func writeDurably(f *os.File) error { return flush(f) }

func flush(f *os.File) error { return f.Sync() }

// Dynamic dispatch: the concrete Flush fsyncs, found via the method
// set of the syncer interface.
type syncer interface{ Flush() error }

type fileSyncer struct{ f *os.File }

func (fs *fileSyncer) Flush() error { return fs.f.Sync() }

func (s *store) flushVia(sy syncer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sy.Flush() // want "via interface Flush"
}

// Audited suppression silences the finding.
func (s *store) allowedSleep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockheld: startup-only path; nothing contends for mu yet
	time.Sleep(time.Millisecond)
}
