(* Test inputs: the tests run from [_build/default/test] under [dune
   runtest] but from the project root under [dune exec
   test/test_main.exe]; these resolve a file under either. *)

let find what candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail (what ^ " not found: " ^ List.hd candidates)

(* a file beside the tests, e.g. a recorded fixture *)
let test_file name = find "fixture" [ name; Filename.concat "test" name ]

(* a program under examples/programs *)
let example name =
  find "example program"
    [ Filename.concat "../examples/programs" name;
      Filename.concat "examples/programs" name ]

let read path = In_channel.with_open_bin path In_channel.input_all
