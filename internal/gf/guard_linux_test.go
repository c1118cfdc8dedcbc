package gf

import (
	"syscall"
	"testing"
	"unsafe"
)

// endOfAllocation returns n elements that end where a PROT_NONE page
// begins, so a kernel that touches the element after them faults.
func endOfAllocation[T any](t *testing.T, n int) []T {
	page, size := syscall.Getpagesize(), n*int(unsafe.Sizeof(*new(T)))
	mapped := (size+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, mapped, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[mapped-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[mapped-page-size])), n)
}
