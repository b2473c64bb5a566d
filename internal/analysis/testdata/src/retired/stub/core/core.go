// Package core (fixture stub) declares the selection pipeline's steps.
package core

func Search() int { return 0 }

func InitialState() int { return 0 }

func InitialStateUCQ() int { return 0 }
