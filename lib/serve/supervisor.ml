(* Worker-pool supervision — see supervisor.mli. *)

type worker = {
  w_slot : int;                       (* stable slot index, 0 .. jobs-1 *)
  mutable w_pid : int;
  mutable w_to : Unix.file_descr;     (* daemon → worker assignments *)
  mutable w_from : Unix.file_descr;   (* worker → daemon events *)
  mutable w_frames : Protocol.event Protocol.Frames.t;
  mutable w_busy : Protocol.assignment option;
  mutable w_dead : bool;
}

type t = {
  sv_workers : worker array;
  sv_cache_dir : string option;
  mutable sv_restarts : int;
}

let fork_worker ~cache_dir slot =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let ev_r, ev_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close ev_r;
      (* the child must never bubble back into the daemon's code *)
      (try Worker.main ?cache_dir ~input:req_r ~output:ev_w ()
       with _ -> Unix._exit 1)
  | pid ->
      Unix.close req_r;
      Unix.close ev_w;
      {
        w_slot = slot;
        w_pid = pid;
        w_to = req_w;
        w_from = ev_r;
        w_frames = Protocol.Frames.create Protocol.events;
        w_busy = None;
        w_dead = false;
      }

let create ?cache_dir ~jobs () =
  let jobs = max 1 jobs in
  {
    sv_workers = Array.init jobs (fun slot -> fork_worker ~cache_dir slot);
    sv_cache_dir = cache_dir;
    sv_restarts = 0;
  }

let size t = Array.length t.sv_workers
let restarts t = t.sv_restarts

let idle_worker t =
  Array.to_seq t.sv_workers
  |> Seq.find (fun w -> (not w.w_dead) && w.w_busy = None)

let pid _t w = w.w_pid

let assign _t w a =
  match Protocol.send_frame Protocol.assignments w.w_to a with
  | Ok () ->
      w.w_busy <- Some a;
      Ok ()
  | Error e -> Error e

let event_fds t =
  Array.to_list t.sv_workers
  |> List.filter_map (fun w -> if w.w_dead then None else Some w.w_from)

let worker_of_fd t fd =
  Array.to_seq t.sv_workers
  |> Seq.find (fun w -> (not w.w_dead) && w.w_from = fd)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Replace a dead worker in its slot: reap, close pipes, fork afresh. *)
let respawn t w =
  let orphan = w.w_busy in
  close_quiet w.w_to;
  close_quiet w.w_from;
  reap w.w_pid;
  let fresh = fork_worker ~cache_dir:t.sv_cache_dir w.w_slot in
  w.w_pid <- fresh.w_pid;
  w.w_to <- fresh.w_to;
  w.w_from <- fresh.w_from;
  w.w_frames <- fresh.w_frames;
  w.w_busy <- None;
  w.w_dead <- false;
  t.sv_restarts <- t.sv_restarts + 1;
  orphan

let read_events t w =
  match Protocol.Frames.read w.w_frames w.w_from with
  | `Eof -> `Crashed (respawn t w)
  | `Frames evs ->
      if List.exists (function Protocol.Verdict _ -> true | _ -> false) evs then
        w.w_busy <- None;
      `Events evs

let shutdown t =
  Array.iter
    (fun w ->
      if not w.w_dead then begin
        close_quiet w.w_to;
        close_quiet w.w_from;
        w.w_dead <- true
      end)
    t.sv_workers;
  Array.iter (fun w -> reap w.w_pid) t.sv_workers
