//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps with microsecond precision. The Go runtime rounds a
// sleep shorter than a millisecond up to a millisecond when the
// process is otherwise idle, which would turn an open loop's
// sub-millisecond gaps into generator lateness. A timerfd read parks
// the goroutine in the network poller instead, which wakes as soon
// as the timer fires and holds no processor while it waits.
type waiter struct {
	fd int
	f  *os.File
}

func newWaiter() (*waiter, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &waiter{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d (no-op for d <= 0).
func (w *waiter) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}, each {tv_sec, tv_nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	_, err := w.f.Read(buf[:])
	return err
}

func (w *waiter) close() error { return w.f.Close() }
