let bits_per_word = Sys.int_size (* 63 on 64-bit platforms *)

(* A window of words: [words.(j)] holds the members in
   [[(lo + j) * bits_per_word, (lo + j + 1) * bits_per_word)]. Nothing
   outside the window is a member, so a set's footprint follows the span
   of its own members rather than the largest ID it holds. [card] caches
   the population count. *)
type t = { mutable lo : int; mutable words : int array; mutable card : int }

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create ?(capacity = 0) () =
  { lo = 0; words = Array.make (words_for capacity) 0; card = 0 }

(* Widen the window to cover words [wlo, whi] exactly. *)
let cover s wlo whi =
  let n = Array.length s.words in
  if n = 0 then begin
    s.lo <- wlo;
    s.words <- Array.make (whi - wlo + 1) 0
  end
  else begin
    let lo = min wlo s.lo and hi = max whi (s.lo + n - 1) in
    if lo < s.lo || hi >= s.lo + n then begin
      let words = Array.make (hi - lo + 1) 0 in
      Array.blit s.words 0 words (s.lo - lo) n;
      s.lo <- lo;
      s.words <- words
    end
  end

(* Incremental growth doubles the window away from the new word, so a
   run of [add]s stays amortized O(1). *)
let ensure s w =
  let n = Array.length s.words in
  if n = 0 then cover s w w
  else if w < s.lo then cover s (max 0 (min w (s.lo - n))) w
  else if w >= s.lo + n then cover s w (max w (s.lo + (2 * n) - 1))

let mem s i =
  let w = (i / bits_per_word) - s.lo in
  (* one unsigned bounds check: negative iff [w < 0] or [w >= length] *)
  w lor (Array.length s.words - 1 - w) >= 0
  && Array.unsafe_get s.words w land (1 lsl (i mod bits_per_word)) <> 0

let add s i =
  let w = i / bits_per_word in
  ensure s w;
  let j = w - s.lo and bit = 1 lsl (i mod bits_per_word) in
  let old = s.words.(j) in
  if old land bit = 0 then begin
    s.words.(j) <- old lor bit;
    s.card <- s.card + 1
  end

let singleton i =
  let s = create () in
  add s i;
  s

let remove s i =
  let w = (i / bits_per_word) - s.lo in
  if w >= 0 && w < Array.length s.words then begin
    let bit = 1 lsl (i mod bits_per_word) in
    let old = s.words.(w) in
    if old land bit <> 0 then begin
      s.words.(w) <- old land lnot bit;
      s.card <- s.card - 1
    end
  end

(* SWAR masks, built by saturating fill so they fit OCaml's 63-bit ints
   (the 64-bit literals 0x5555… overflow the int literal range; the
   fixpoint fills every lane of whatever the native word width is). *)
let swar_fill seed shift =
  let rec go acc =
    let acc' = acc lor (acc lsl shift) in
    if acc' = acc then acc else go acc'
  in
  go seed

let m1 = swar_fill 1 2 (* 0b0101…01 *)
let m2 = swar_fill 3 4 (* 0b0011…11 *)
let m4 = swar_fill 0xF 8 (* 0x0F0F…0F *)
let h01 = swar_fill 1 8 (* 0x0101…01 *)

(* Constant-time SWAR popcount: pairwise lane sums then one multiply
   that accumulates every byte lane into the top one. The top lane of a
   63-bit word is only 7 bits wide, but the maximum count (63) still
   fits, so shifting down [bits_per_word - 7] recovers the exact sum. *)
let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr (bits_per_word - 7)

let popcount_word = popcount

let cardinal s = s.card

let is_empty s = s.card = 0

let union_into ~dst src =
  let n = Array.length src.words in
  if src.card > 0 then begin
    cover dst src.lo (src.lo + n - 1);
    let off = src.lo - dst.lo in
    for j = 0 to n - 1 do
      let w = src.words.(j) in
      if w <> 0 then begin
        let old = dst.words.(off + j) in
        let nw = old lor w in
        if nw <> old then begin
          dst.words.(off + j) <- nw;
          dst.card <- dst.card + popcount nw - popcount old
        end
      end
    done
  end

let copy s = { lo = s.lo; words = Array.copy s.words; card = s.card }

let with_added s i =
  let w = i / bits_per_word and n = Array.length s.words in
  let lo, hi = if n = 0 then (w, w) else (min w s.lo, max w (s.lo + n - 1)) in
  let words = Array.make (hi - lo + 1) 0 in
  if n > 0 then Array.blit s.words 0 words (s.lo - lo) n;
  let c = { lo; words; card = s.card } in
  add c i;
  c

let union = function
  | [] -> create ()
  | sets ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) s ->
            let n = Array.length s.words in
            if s.card = 0 then (lo, hi) else (min lo s.lo, max hi (s.lo + n - 1)))
          (max_int, -1) sets
      in
      if hi < 0 then create ()
      else begin
        let dst = { lo; words = Array.make (hi - lo + 1) 0; card = 0 } in
        List.iter
          (fun s ->
            let off = s.lo - lo in
            Array.iteri
              (fun j w -> if w <> 0 then dst.words.(off + j) <- dst.words.(off + j) lor w)
              s.words)
          sets;
        dst.card <- Array.fold_left (fun acc w -> acc + popcount w) 0 dst.words;
        dst
      end

let subset a b =
  a.card <= b.card
  &&
  let na = Array.length a.words and nb = Array.length b.words in
  let off = a.lo - b.lo in
  let rec go j =
    j >= na
    ||
    let w = a.words.(j) in
    (w = 0
    ||
    let k = off + j in
    k >= 0 && k < nb && w land lnot b.words.(k) = 0)
    && go (j + 1)
  in
  go 0

let equal a b = a.card = b.card && subset a b

let each_side_has_private_bit a b = not (subset a b) && not (subset b a)

(* Lowest-set-bit iteration: O(cardinal) calls instead of O(words × w)
   bit probes. [b land (-b)] isolates the lowest set bit; its index is
   the popcount of the mask of bits below it. *)
let iter f s =
  Array.iteri
    (fun wi w ->
      if w <> 0 then begin
        let base = (s.lo + wi) * bits_per_word in
        let w = ref w in
        while !w <> 0 do
          let b = !w land - !w in
          f (base + popcount (b - 1));
          w := !w land (!w - 1)
        done
      end)
    s.words

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let words s = Array.length s.words

let window s = (s.lo, s.lo + Array.length s.words - 1)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (elements s)
