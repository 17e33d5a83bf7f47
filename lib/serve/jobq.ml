(* Bounded multi-level FIFO — see jobq.mli. *)

type 'a t = {
  qs : 'a Queue.t array;   (* index = priority level, 0 most urgent *)
  cap : int;
  mutable count : int;
}

let create ?(levels = 3) ~capacity () =
  if levels < 1 then invalid_arg "Jobq.create: levels < 1";
  if capacity < 1 then invalid_arg "Jobq.create: capacity < 1";
  { qs = Array.init levels (fun _ -> Queue.create ()); cap = capacity; count = 0 }

let clamp t prio = max 0 (min prio (Array.length t.qs - 1))

let push t ~prio x =
  if t.count >= t.cap then `Full
  else begin
    Queue.push x t.qs.(clamp t prio);
    t.count <- t.count + 1;
    `Ok t.count
  end

let pop t =
  let n = Array.length t.qs in
  let rec go i =
    if i >= n then None
    else if Queue.is_empty t.qs.(i) then go (i + 1)
    else begin
      t.count <- t.count - 1;
      Some (Queue.pop t.qs.(i))
    end
  in
  go 0

let length t = t.count
let capacity t = t.cap

let drain t =
  let rec go acc = match pop t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []
