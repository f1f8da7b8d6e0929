(* Host-side instrumentation, recorded entirely from outside the library:
   a monotonic host clock, per-closure host-time accumulators around the
   wrapped [App.t] closures, coarse host spans around the calls into each
   layer, the machine-speed probe, and the event-counting engine loop.

   Nothing here performs a virtual-time operation, draws from a simulation
   RNG or changes what the simulated processes do, so a traced run and an
   untraced run at one seed produce bit-identical simulated results. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ---- host-time accumulators ---- *)

type acc = { mutable count : int; mutable total_ns : int }

let acc () = { count = 0; total_ns = 0 }

let add a t0 =
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + (now_ns () - t0)

let mean_us a =
  if a.count = 0 then 0.0 else float_of_int a.total_ns /. float_of_int a.count /. 1e3

let total_s a = float_of_int a.total_ns /. 1e9

(* ---- host spans ---- *)

type span = { name : string; parent : string; start_ns : int; stop_ns : int }

type t = {
  traced : bool;
  setup : acc;  (** [App.setup], one sample per replica load *)
  gen : acc;  (** embedded generator calls, or client payload generation *)
  body : acc;  (** transaction body attempts (embedded workers, client ops) *)
  read : acc;  (** [App.read_op] bodies *)
  mutable spans : span list;  (** newest first; written out at run end *)
}

let create ~traced =
  { traced; setup = acc (); gen = acc (); body = acc (); read = acc (); spans = [] }

(* [span p name f] runs [f] and, in a traced run, records a host span
   around it. Spans are coarse (one per phase of the run: set-up, warm-up,
   window, drain, checks), all children of the run, so the list stays
   small. *)
let span p name f =
  if not p.traced then f ()
  else begin
    let start_ns = now_ns () in
    let r = f () in
    p.spans <- { name; parent = "run"; start_ns; stop_ns = now_ns () } :: p.spans;
    r
  end

let timed a f x =
  let t0 = now_ns () in
  match f x with
  | v ->
      add a t0;
      v
  | exception e ->
      add a t0;
      raise e

(* ---- wrapped application closures ----

   [stop] parks embedded workers for the quiescent drain after the window:
   a stopped generator suspends its worker process forever (no event is
   scheduled), so the leader stops producing while replication, release
   and replay run to completion. The flag check is the same in both modes;
   the timing wrappers exist only in a traced run. *)

let park_forever () = Sim.Engine.suspend (fun ~wake:_ -> ())

let wrap_app p ~stop (app : Rolis.App.t) : Rolis.App.t =
  if not p.traced then
    {
      app with
      make_worker =
        (fun db ~rng ~worker ~nworkers ->
          let gen = app.make_worker db ~rng ~worker ~nworkers in
          fun () ->
            if !stop then park_forever ();
            gen ());
    }
  else
    {
      app with
      setup = timed p.setup app.setup;
      make_worker =
        (fun db ~rng ~worker ~nworkers ->
          let gen = app.make_worker db ~rng ~worker ~nworkers in
          fun () ->
            if !stop then park_forever ();
            let body = timed p.gen gen () in
            timed p.body body);
      client_op =
        Option.map
          (fun op db ~payload -> timed p.body (op db ~payload))
          app.client_op;
      read_op =
        Option.map (fun op db ~payload -> timed p.read (op db ~payload)) app.read_op;
    }

(* ---- the machine-speed probe ----

   On a shared host (containers, virtual machines) a busy neighbour slows
   a memory-heavy process such as the simulator by 20-70% for stretches of
   seconds to minutes. Wall-clock rates from runs minutes apart then
   differ by more than any code change would move them. The probe
   measures the machine while the simulator runs: a fixed,
   allocation-free loop of random lookups in a table of a few tens of MB
   (hash, pointer chasing, cache misses — the simulator's own mix), run in
   a short slice every [probe_every] events. Its cost per lookup against
   [nominal_ns_per_op] gives the machine's speed relative to a quiet
   reference container, and host seconds are scaled by it: a run on a
   machine slowed by 30% reports what it would have measured on the quiet
   one. The probe's own time is excluded from the simulator's. Being
   allocation-free, it triggers no garbage collection, so a change to the
   simulator's allocation cannot shift cost into the probe. *)

let probe_keys = 250_000
let probe_ops_per_slice = 6_000
let probe_every = 4096

(* ns per probe lookup on a quiet 2-vCPU x86 container; only ratios of
   normalized figures are compared, so its exact value is immaterial. *)
let nominal_ns_per_op = 300.0

let probe_table =
  lazy
    (let t = Hashtbl.create probe_keys in
     for i = 0 to probe_keys - 1 do
       Hashtbl.replace t i (Array.make 4 i)
     done;
     t)

type speed = { mutable ops : int; mutable ns : int; mutable seed : int }

let speed () = { ops = 0; ns = 0; seed = 12345 }

let probe_slice sp ops =
  let tbl = Lazy.force probe_table in
  let t0 = now_ns () in
  let r = ref sp.seed and acc = ref 0 in
  for _ = 1 to ops do
    r := ((!r * 1103515245) + 12345) land 0x3fffffff;
    let a = Hashtbl.find tbl (!r mod probe_keys) in
    acc := !acc + a.(!r land 3)
  done;
  ignore (Sys.opaque_identity !acc);
  sp.seed <- !r;
  sp.ops <- sp.ops + ops;
  sp.ns <- sp.ns + (now_ns () - t0)

(* Host seconds as the quiet reference machine would have measured them. *)
let normalize sp secs =
  if sp.ops = 0 then secs
  else secs *. nominal_ns_per_op /. (float_of_int sp.ns /. float_of_int sp.ops)

(* [timed_normalized f] runs [f] and returns its result with its host
   seconds normalized by a probe slice run right after it (for one-shot
   phases such as set-up). Only the slice after [f] counts: just after the
   table is built it sits in cache and the probe would read too fast,
   while after [f] it is as cold as during a measured window. *)
let timed_normalized f =
  ignore (Lazy.force probe_table);
  let t0 = now_ns () in
  let v = f () in
  let secs = secs_since t0 in
  let sp = speed () in
  probe_slice sp 100_000;
  (v, normalize sp secs)

(* ---- the event-counting engine loop ----

   [advance eng ~until] fires events until the clock stands exactly on
   [until] and returns how many fired. It drives [Engine.run ~max_events]
   slices and never passes [~until] alongside [~max_events]: [run] moves
   the clock to [until] even when a slice stops early on [max_events],
   which would skip virtual time. A sentinel event at [until] marks the
   end; slices shrink as the sentinel nears (sized from the mean event rate
   so far, with a 256x margin) and the approach is made one event at a
   time, so the slice that fires the sentinel fires nothing after it.
   Every slice but the last fires exactly its size: the queue cannot drain
   while the sentinel is pending. With [speed], a probe slice runs every
   [probe_every] events. *)

exception Overshoot of int * int

let advance ?speed eng ~until =
  let now () = Sim.Engine.now eng in
  if until < now () then invalid_arg "Probe.advance: until is in the past";
  let reached = ref false in
  Sim.Engine.schedule eng until (fun () -> reached := true);
  let start = now () in
  let fired = ref 0 and slice = ref 1 in
  while not !reached do
    Sim.Engine.run ~max_events:!slice eng;
    (match speed with
    | Some sp when (!fired + !slice) / probe_every <> !fired / probe_every ->
        probe_slice sp probe_ops_per_slice
    | _ -> ());
    fired := !fired + !slice;
    let elapsed = now () - start in
    let rate = if elapsed = 0 then 0.0 else float_of_int !fired /. float_of_int elapsed in
    let expected = rate *. float_of_int (until - now ()) in
    slice :=
      if expected < 65536.0 then 1
      else min probe_every (max 1 (int_of_float (expected /. 256.0)))
  done;
  if now () <> until then raise (Overshoot (now (), until));
  !fired

(* ---- host memory ---- *)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
