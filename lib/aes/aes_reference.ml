(* Reference implementation of FIPS-197 (AES) in OCaml, written directly
   from the standard's pseudocode: the ground truth that the MiniSpark
   artifacts (optimized implementation, refactored versions) and the
   specification-language formalisation are validated against.

   State is a 4x4 byte matrix stored column-major as [s.(col).(row)]... in
   FIPS terms: s.(c).(r) is the byte in row r, column c, matching the
   in(4c + r) input ordering. *)

type key_size =
  | Aes128
  | Aes192
  | Aes256

let nk_of = function Aes128 -> 4 | Aes192 -> 6 | Aes256 -> 8
let nr_of = function Aes128 -> 10 | Aes192 -> 12 | Aes256 -> 14

(* ---------------- GF(2^8) arithmetic ---------------- *)

let xtime b =
  let b' = b lsl 1 in
  if b land 0x80 <> 0 then (b' lxor 0x1b) land 0xff else b' land 0xff

(* Russian-peasant multiplication in GF(2^8) with the AES polynomial *)
let gf_mul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
  in
  go a b 0

(* multiplicative inverse by Fermat: a^254 *)
let gf_inv a =
  if a = 0 then 0
  else begin
    let rec pow x n = if n = 0 then 1 else gf_mul x (pow x (n - 1)) in
    pow a 254
  end

(* the affine transformation of the S-box *)
let affine b =
  let bit x k = (x lsr k) land 1 in
  let out = ref 0 in
  for i = 0 to 7 do
    let v =
      bit b i lxor bit b ((i + 4) mod 8) lxor bit b ((i + 5) mod 8)
      lxor bit b ((i + 6) mod 8) lxor bit b ((i + 7) mod 8) lxor bit 0x63 i
    in
    out := !out lor (v lsl i)
  done;
  !out

let sbox = Array.init 256 (fun b -> affine (gf_inv b))

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let rcon = Array.init 10 (fun i ->
    let rec go n acc = if n = 0 then acc else go (n - 1) (xtime acc) in
    go i 0x01)

(* ---------------- state handling ---------------- *)

type state = int array array  (* s.(c).(r), 4x4 *)

let state_of_block (b : int array) : state =
  Array.init 4 (fun c -> Array.init 4 (fun r -> b.((4 * c) + r)))

let block_of_state (s : state) : int array =
  Array.init 16 (fun i -> s.(i / 4).(i mod 4))

(* ---------------- round transformations (FIPS-197 §5.1) ---------------- *)

let sub_bytes (s : state) : state =
  Array.map (Array.map (fun b -> sbox.(b))) s

let inv_sub_bytes (s : state) : state =
  Array.map (Array.map (fun b -> inv_sbox.(b))) s

(* ShiftRows: row r rotates left by r; s.(c).(r) <- s.((c + r) mod 4).(r) *)
let shift_rows (s : state) : state =
  Array.init 4 (fun c -> Array.init 4 (fun r -> s.((c + r) mod 4).(r)))

let inv_shift_rows (s : state) : state =
  Array.init 4 (fun c -> Array.init 4 (fun r -> s.(((c - r) + 4) mod 4).(r)))

let mix_column col =
  let a0 = col.(0) and a1 = col.(1) and a2 = col.(2) and a3 = col.(3) in
  [| gf_mul 2 a0 lxor gf_mul 3 a1 lxor a2 lxor a3;
     a0 lxor gf_mul 2 a1 lxor gf_mul 3 a2 lxor a3;
     a0 lxor a1 lxor gf_mul 2 a2 lxor gf_mul 3 a3;
     gf_mul 3 a0 lxor a1 lxor a2 lxor gf_mul 2 a3 |]

let inv_mix_column col =
  let a0 = col.(0) and a1 = col.(1) and a2 = col.(2) and a3 = col.(3) in
  [| gf_mul 0x0e a0 lxor gf_mul 0x0b a1 lxor gf_mul 0x0d a2 lxor gf_mul 0x09 a3;
     gf_mul 0x09 a0 lxor gf_mul 0x0e a1 lxor gf_mul 0x0b a2 lxor gf_mul 0x0d a3;
     gf_mul 0x0d a0 lxor gf_mul 0x09 a1 lxor gf_mul 0x0e a2 lxor gf_mul 0x0b a3;
     gf_mul 0x0b a0 lxor gf_mul 0x0d a1 lxor gf_mul 0x09 a2 lxor gf_mul 0x0e a3 |]

let mix_columns (s : state) : state = Array.map mix_column s
let inv_mix_columns (s : state) : state = Array.map inv_mix_column s

(* round key w.(4*round + c) is a 4-byte column *)
let add_round_key (w : int array array) round (s : state) : state =
  Array.init 4 (fun c -> Array.init 4 (fun r -> s.(c).(r) lxor w.((4 * round) + c).(r)))

(* ---------------- key expansion (FIPS-197 §5.2) ---------------- *)

let rot_word w = [| w.(1); w.(2); w.(3); w.(0) |]
let sub_word w = Array.map (fun b -> sbox.(b)) w
let xor_word a b = Array.init 4 (fun i -> a.(i) lxor b.(i))

(** [key_expansion size key] returns [w]: an array of 4*(nr+1) words (each
    a 4-byte array).  [key] holds 4*nk bytes. *)
let key_expansion size (key : int array) : int array array =
  let nk = nk_of size and nr = nr_of size in
  if Array.length key <> 4 * nk then invalid_arg "Aes_reference.key_expansion";
  let total = 4 * (nr + 1) in
  let w = Array.make total [||] in
  for i = 0 to nk - 1 do
    w.(i) <- Array.init 4 (fun r -> key.((4 * i) + r))
  done;
  for i = nk to total - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then
        xor_word (sub_word (rot_word temp)) [| rcon.((i / nk) - 1); 0; 0; 0 |]
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- xor_word w.(i - nk) temp
  done;
  w

(* ---------------- cipher / inverse cipher (FIPS-197 §5.1, §5.3) -------- *)

let cipher size (w : int array array) (input : int array) : int array =
  let nr = nr_of size in
  let s = ref (add_round_key w 0 (state_of_block input)) in
  for round = 1 to nr - 1 do
    s := add_round_key w round (mix_columns (shift_rows (sub_bytes !s)))
  done;
  s := add_round_key w nr (shift_rows (sub_bytes !s));
  block_of_state !s

let inv_cipher size (w : int array array) (input : int array) : int array =
  let nr = nr_of size in
  let s = ref (add_round_key w nr (state_of_block input)) in
  for round = nr - 1 downto 1 do
    s := inv_mix_columns (add_round_key w round (inv_shift_rows (inv_sub_bytes !s)))
  done;
  s := add_round_key w 0 (inv_shift_rows (inv_sub_bytes !s));
  block_of_state !s

let encrypt size ~key ~plaintext =
  cipher size (key_expansion size key) plaintext

let decrypt size ~key ~ciphertext =
  inv_cipher size (key_expansion size key) ciphertext

(* ---------------- helpers for test vectors ---------------- *)

let bytes_of_hex s =
  let n = String.length s / 2 in
  Array.init n (fun i -> int_of_string ("0x" ^ String.sub s (2 * i) 2))

let hex_of_bytes a =
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%02x") a))
