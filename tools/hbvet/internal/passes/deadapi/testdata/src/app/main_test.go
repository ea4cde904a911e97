package main

import "api"

// A test's use keeps nothing alive.
func useInTest() { api.OnlyTested() }
