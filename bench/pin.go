package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

// setAffinity applies m to every thread of this process; threads and
// children started afterwards inherit it. Two passes catch a thread that
// an unpinned thread started during the first.
func setAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return errno
			}
		}
	}
	return nil
}

// pinToOneCPU confines the bench process, and so every child it starts
// until unpin is called, to the first CPU it is allowed on.
func pinToOneCPU() (unpin func(), err error) {
	all, err := getAffinity()
	if err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	var one cpuMask
	for i, word := range all {
		if word != 0 {
			one[i] = word & -word // lowest set bit
			break
		}
	}
	if err := setAffinity(one); err != nil {
		return nil, fmt.Errorf("sched_setaffinity: %w", err)
	}
	return func() { _ = setAffinity(all) }, nil
}
