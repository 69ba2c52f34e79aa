//go:build !race

package spec_test

// degradedSpins is the outer loop count of degradedSrc: 500 calls of
// spin(10000) retire 55M instructions natively, 85M on chrome.
const degradedSpins = 500
