(* Service client — see client.mli. *)

type t = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_lines : Protocol.Lines.t;
  mutable c_open : bool;
  c_pid : int option;  (* forked daemon under with_daemon *)
}

let of_fds ~input ~output =
  {
    c_in = input;
    c_out = output;
    c_lines = Protocol.Lines.create ();
    c_open = true;
    c_pid = None;
  }

let connect ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect sock (Unix.ADDR_UNIX path) with
  | () -> Ok (of_fds ~input:sock ~output:sock)
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to daemon at %s: %s" path
           (Unix.error_message e))

let close t =
  if t.c_open then begin
    t.c_open <- false;
    if t.c_in <> t.c_out then (try Unix.close t.c_in with Unix.Unix_error _ -> ());
    try Unix.close t.c_out with Unix.Unix_error _ -> ()
  end

let request t req =
  if not t.c_open then Error "client closed"
  else Protocol.send t.c_out (Protocol.request_to_json req)

let next_event ?(timeout_s = 60.0) t =
  if not t.c_open then Error "client closed"
  else begin
    let deadline = Logic.Clock.now () +. timeout_s in
    let rec go () =
      match Protocol.Lines.pop t.c_lines with
      | Some line -> (
          match Telemetry.Json.of_string line with
          | Error e -> Error ("unparseable event: " ^ e)
          | Ok j -> Protocol.event_of_json j)
      | None ->
          let left = deadline -. Logic.Clock.now () in
          if left <= 0.0 then Error "timed out waiting for daemon event"
          else (
            match Unix.select [ t.c_in ] [] [] (Float.min left 0.5) with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | [], _, _ -> go ()
            | _ :: _, _, _ -> (
                match Protocol.Lines.read t.c_lines t.c_in with
                | `Eof ->
                    t.c_open <- false;
                    Error "daemon closed the connection"
                | `Data -> go ()))
    in
    go ()
  end

let run_job ?(on_event = fun _ -> ()) t (js : Protocol.job_spec) =
  match request t (Protocol.Submit js) with
  | Error e -> Error e
  | Ok () ->
      let rec wait ~id =
        match next_event t with
        | Error e -> Error e
        | Ok ev -> (
            on_event ev;
            match ev with
            | Protocol.Accepted { ev_job; _ } when id = "" ->
                (* daemon assigned the id; track it from here on *)
                wait ~id:ev_job
            | Protocol.Rejected { ev_job; ev_reason }
              when id = "" || ev_job = id ->
                Error ev_reason
            | Protocol.Verdict { ev_job; ev_outcome; ev_dedup; ev_attempts }
              when ev_job = id ->
                Ok (ev_outcome, ev_dedup, ev_attempts)
            | Protocol.Bye -> Error "daemon said bye before the verdict"
            | _ -> wait ~id)
      in
      wait ~id:js.Protocol.js_id

let stats t =
  match request t Protocol.Stats with
  | Error e -> Error e
  | Ok () ->
      let rec wait () =
        match next_event t with
        | Error e -> Error e
        | Ok (Protocol.Stats_reply s) -> Ok s
        | Ok _ -> wait ()
      in
      wait ()

let daemon_pid t = t.c_pid

let with_daemon ?(config = Daemon.default_config) f =
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.signal Sys.sigpipe old_pipe))
    (fun () ->
      let ours, theirs =
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      match Unix.fork () with
      | 0 ->
          (* daemon child: serve the other end of the pair, then leave
             without running the parent's at_exit machinery *)
          (try Unix.close ours with Unix.Unix_error _ -> ());
          (try
             ignore (Daemon.run_fd ~config ~input:theirs ~output:theirs ())
           with _ -> Unix._exit 1);
          Unix._exit 0
      | pid ->
          (try Unix.close theirs with Unix.Unix_error _ -> ());
          let t =
            { (of_fds ~input:ours ~output:ours) with c_pid = Some pid }
          in
          Fun.protect
            ~finally:(fun () ->
              ignore (request t Protocol.Shutdown);
              close t;
              (* the daemon exits once drained; force it if it wedges *)
              let rec reap tries =
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ ->
                    if tries <= 0 then begin
                      (try Unix.kill pid Sys.sigkill
                       with Unix.Unix_error _ -> ());
                      ignore (Unix.waitpid [] pid)
                    end
                    else begin
                      ignore (Unix.select [] [] [] 0.05);
                      reap (tries - 1)
                    end
                | _ -> ()
                | exception Unix.Unix_error _ -> ()
              in
              reap 200)
            (fun () -> f t))
