// Package pregel implements a bulk-synchronous-parallel vertex-centric
// graph engine in the style of Google's Pregel (Malewicz et al., which
// the paper cites as the emerging alternative to MapReduce for graphs,
// conjecturing that "the ideas presented in this paper also translate to
// Pregel"). The core package uses it to host the BSP translation of the
// FFMR algorithm so that conjecture can be tested empirically.
//
// The model: computation proceeds in supersteps. In each superstep every
// active vertex receives the messages sent to it in the previous
// superstep, runs the user Program, may mutate its value, send messages,
// and vote to halt. A halted vertex is reactivated by an incoming
// message. The run ends when every vertex has halted and no messages are
// in flight.
//
// Cost. Every vertex starts active. After that a superstep costs
// O(active + messages), not O(vertices): each worker keeps the list of
// its vertices that did not vote to halt, sorts its inbox by destination
// and merge-joins the two against its ID-sorted vertices, so a halted
// vertex without mail is never looked at (the work-list discipline of
// Baumstark, Blelloch and Shun's synchronous push-relabel). A program
// gets that only if it follows the halting contract — a vertex that
// never votes to halt is computed every superstep.
//
// Message lifetime. The messages slice handed to Compute, and every
// message in it, is valid only until that Compute call returns: messages
// are windows of the sending worker's arena, which it truncates and
// refills two supersteps later, and the slice and the Context are worker
// scratch as well. A program that wants to keep a message copies it, as
// with mapreduce.Values. SendTo and Collect copy what they are given.
//
// Unknown destinations. A message addressed to an ID the engine has no
// vertex for is dropped at delivery and counted in Stats.Undelivered; it
// still counts in Stats.Messages and still keeps the run alive for the
// superstep it was in flight.
//
// Two extensions mirror what the flow algorithms need:
//
//   - int64 sum aggregators (Pregel's aggregators), readable by all
//     vertices in the next superstep — used for movement counters;
//   - a master collector: vertices submit opaque byte items during a
//     superstep and a MasterCompute hook runs between supersteps over
//     the collected items, publishing global side data for the next
//     superstep — the BSP analogue of the paper's aug_proc process.
package pregel

// Program is the vertex-centric computation executed each superstep.
type Program interface {
	// Compute runs for one active vertex in one superstep. ctx, messages
	// and the messages' bytes are the engine's and must not be kept past
	// the call.
	Compute(ctx *Context, v *Vertex, messages [][]byte) error
}

// MasterCompute runs once between supersteps on the collected items and
// the superstep's aggregator values; the returned bytes become the
// global side data visible to every vertex in the next superstep
// (Context.Global).
type MasterCompute func(superstep int, collected [][]byte, aggregates map[string]int64) ([]byte, error)
