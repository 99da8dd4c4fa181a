(* Systematic Reed-Solomon over GF(256), generator polynomial 0x11d.

   The generator matrix is a (k+m) x k Vandermonde matrix V with
   distinct evaluation points 0..k+m-1, right-multiplied by the
   inverse of its own top k x k block. The product's top block is the
   identity (systematic: data shards are the page itself) and any k
   rows remain invertible, because any k rows of V form a Vandermonde
   minor over distinct points. Everything below is a pure function of
   (k, m) and the page bytes. *)

(* --- GF(256) arithmetic (log/antilog tables, built once) ----------- *)

let gf_exp = Array.make 512 0
let gf_log = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    gf_exp.(i) <- !x;
    gf_log.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x100 <> 0 then x := !x lxor 0x11d
  done;
  (* doubled so [mul] needs no modular reduction *)
  for i = 255 to 511 do
    gf_exp.(i) <- gf_exp.(i - 255)
  done

let gmul a b = if a = 0 || b = 0 then 0 else gf_exp.(gf_log.(a) + gf_log.(b))

let gdiv a b =
  if b = 0 then invalid_arg "Ec: division by zero"
  else if a = 0 then 0
  else gf_exp.(gf_log.(a) - gf_log.(b) + 255)

(* x^n with x^0 = 1 (including 0^0, the Vandermonde corner). *)
let gpow x n =
  if n = 0 then 1
  else if x = 0 then 0
  else gf_exp.(gf_log.(x) * n mod 255)

(* --- Matrix helpers ------------------------------------------------ *)

(* Gauss-Jordan inversion of a square matrix over GF(256); the
   matrices inverted here (Vandermonde minors over distinct points)
   are always invertible, so a zero pivot is a programming error. *)
let invert mat =
  let n = Array.length mat in
  let a = Array.map Array.copy mat in
  let inv = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0)) in
  for col = 0 to n - 1 do
    (* find a non-zero pivot at or below the diagonal *)
    let piv = ref col in
    while a.(!piv).(col) = 0 do
      incr piv;
      if !piv >= n then invalid_arg "Ec: singular matrix"
    done;
    if !piv <> col then begin
      let t = a.(col) in
      a.(col) <- a.(!piv);
      a.(!piv) <- t;
      let t = inv.(col) in
      inv.(col) <- inv.(!piv);
      inv.(!piv) <- t
    end;
    let p = a.(col).(col) in
    for j = 0 to n - 1 do
      a.(col).(j) <- gdiv a.(col).(j) p;
      inv.(col).(j) <- gdiv inv.(col).(j) p
    done;
    for row = 0 to n - 1 do
      if row <> col && a.(row).(col) <> 0 then begin
        let f = a.(row).(col) in
        for j = 0 to n - 1 do
          a.(row).(j) <- a.(row).(j) lxor gmul f a.(col).(j);
          inv.(row).(j) <- inv.(row).(j) lxor gmul f inv.(col).(j)
        done
      end
    done
  done;
  inv

let mat_mul a b =
  let n = Array.length a and p = Array.length b.(0) in
  let q = Array.length b in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let acc = ref 0 in
          for t = 0 to q - 1 do
            acc := !acc lxor gmul a.(i).(t) b.(t).(j)
          done;
          !acc))

(* --- The code ------------------------------------------------------ *)

type code = {
  ck : int;
  cm : int;
  rows : int array array;  (* (k+m) x k systematic generator *)
}

let make ~k ~m =
  if k < 1 then invalid_arg "Ec.make: k must be >= 1";
  if m < 0 then invalid_arg "Ec.make: m must be >= 0";
  if k + m > 255 then invalid_arg "Ec.make: k + m must be <= 255";
  let vand =
    Array.init (k + m) (fun i -> Array.init k (fun j -> gpow i j))
  in
  let top = Array.init k (fun i -> vand.(i)) in
  let rows = mat_mul vand (invert top) in
  (* the top block must have come out as the identity *)
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      assert (rows.(i).(j) = if i = j then 1 else 0)
    done
  done;
  { ck = k; cm = m; rows }

let k c = c.ck
let width c = c.ck + c.cm
let shard_length c ~page_bytes = (page_bytes + c.ck - 1) / c.ck

(* --- Encode -------------------------------------------------------- *)

let data_shards c page =
  let len = shard_length c ~page_bytes:(Bytes.length page) in
  Array.init c.ck (fun i ->
      let s = Bytes.make len '\000' in
      let off = i * len in
      let n = min len (Bytes.length page - off) in
      if n > 0 then Bytes.blit page off s 0 n;
      s)

let combine c row shards len =
  let out = Bytes.make len '\000' in
  for j = 0 to c.ck - 1 do
    let coef = row.(j) in
    if coef <> 0 then
      let s = shards.(j) in
      for b = 0 to len - 1 do
        Bytes.unsafe_set out b
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get out b)
             lxor gmul coef (Char.code (Bytes.unsafe_get s b))))
      done
  done;
  out

let encode c page =
  let data = data_shards c page in
  let len = shard_length c ~page_bytes:(Bytes.length page) in
  Array.init (width c) (fun i ->
      if i < c.ck then Bytes.copy data.(i)
      else combine c c.rows.(i) data len)

(* --- Decode -------------------------------------------------------- *)

type shortfall = { have : int; need : int }

let decode c ~page_bytes shards =
  let len = shard_length c ~page_bytes in
  (* keep the first shard seen per valid index, then pick the k lowest
     indices — deterministic in the argument list alone *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (i, s) ->
      if
        i >= 0
        && i < width c
        && Bytes.length s = len
        && not (Hashtbl.mem seen i)
      then Hashtbl.replace seen i s)
    shards;
  let have = Hashtbl.length seen in
  if have < c.ck then Error (`Unrecoverable { have; need = c.ck })
  else begin
    let picked =
      Hashtbl.fold (fun i s acc -> (i, s) :: acc) seen []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> fun l -> List.filteri (fun n _ -> n < c.ck) l
    in
    let idxs = Array.of_list (List.map fst picked) in
    let subs = Array.of_list (List.map snd picked) in
    let data =
      if Array.for_all (fun i -> i < c.ck) idxs then begin
        (* all-data fast path: the shards are the page *)
        let d = Array.make c.ck Bytes.empty in
        Array.iteri (fun n i -> d.(i) <- subs.(n)) idxs;
        d
      end
      else begin
        let sub = Array.map (fun i -> c.rows.(i)) idxs in
        let dec = invert sub in
        Array.init c.ck (fun i -> combine c dec.(i) subs len)
      end
    in
    let page = Bytes.make page_bytes '\000' in
    for i = 0 to c.ck - 1 do
      let off = i * len in
      let n = min len (page_bytes - off) in
      if n > 0 then Bytes.blit data.(i) 0 page off n
    done;
    Ok page
  end
