package gf

import (
	"syscall"
	"testing"
	"unsafe"
)

// endOfAllocation returns n words that end where a PROT_NONE page
// begins, so a kernel that touches the word after them faults.
func endOfAllocation(t *testing.T, n int) []uint64 {
	page := syscall.Getpagesize()
	size := (8*n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[size-page-8*n])), n)
}
