//go:build !linux

package main

import "time"

func sharpenTimer() {}

// sleepUntil falls back to the runtime timer, which may wake late by up to
// about a millisecond; the reported lag shows by how much.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
