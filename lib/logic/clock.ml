(* Monotonic clamp over an injectable time source: the OCaml stdlib
   exposes no monotonic clock and we add no dependencies, so we make the
   source (gettimeofday by default) monotone by never letting it go
   backwards within the process.  Tests install a scripted source with
   [set_source]/[with_source] so deadline and telemetry behaviour is
   deterministic instead of sleeping on the wall clock.

   The high-water mark is an [Atomic] updated by compare-and-set: the
   proof farm polls deadlines from several domains at once, and a plain
   ref could lose a later time to a racing earlier store, letting the
   clamp step backwards.  The CAS loop keeps [now] lock-free on the
   prover's hot path. *)

let wall_clock = Unix.gettimeofday

let source = ref wall_clock

let last = Atomic.make neg_infinity

let rec raise_to t =
  let cur = Atomic.get last in
  if t <= cur then cur
  else if Atomic.compare_and_set last cur t then t
  else raise_to t

let now () = raise_to (!source ())

let set_source f =
  source := f;
  (* a fresh source restarts the monotone clamp: a test clock starting at
     0.0 must not be pinned below the wall-clock time already observed *)
  Atomic.set last neg_infinity

let with_source f body =
  let saved_source = !source and saved_last = Atomic.get last in
  set_source f;
  Fun.protect
    ~finally:(fun () ->
      source := saved_source;
      Atomic.set last saved_last)
    body

let elapsed t0 = Float.max 0.0 (now () -. t0)

let deadline = function Some s -> now () +. s | None -> infinity

let expired d = now () > d
