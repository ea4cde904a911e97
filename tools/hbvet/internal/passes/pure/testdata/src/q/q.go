// Package q is the shell side: an unmarked file may do everything a
// marked one may not, and a mark that is not on a line of its own (or
// names another word) marks nothing.
package q

import "sync"

//hbvet:purely not the mark

type shell struct {
	mu   sync.Mutex
	wake chan struct{}
}

func (s *shell) run() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { s.wake <- struct{}{} }()
	select {
	case <-s.wake:
	default:
	}
}
