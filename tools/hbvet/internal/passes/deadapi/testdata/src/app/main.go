// Package app uses package api the ways a module's commands do.
package main

import (
	"fmt"
	"os"

	"api"
)

func main() {
	api.Used()
	api.Stale()
	c := api.NewConn()
	c.Send()
	api.Drive(api.NewPipe())
	fmt.Fprint(api.NewPipe(), "x")
	fmt.Fprintln(os.Stdout, api.NewBox(1).Get(), api.Red)
}
