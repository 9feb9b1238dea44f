//go:build !amd64 || purego

package simd

func hasAVX512() bool { return false }
