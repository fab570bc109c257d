//go:build !linux

package main

import "time"

// waiter falls back to time.Sleep off Linux (millisecond granularity
// for short gaps; the bench's /proc readings are Linux-only anyway).
type waiter struct{}

func newWaiter() (*waiter, error) { return &waiter{}, nil }

func (w *waiter) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (w *waiter) close() error { return nil }
