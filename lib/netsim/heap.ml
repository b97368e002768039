(* The backing array is created by the first push, filled with that
   element, so no dummy value is needed. *)
type 'a t = { lt : 'a -> 'a -> bool; mutable data : 'a array; mutable len : int }

let create ~lt = { lt; data = [||]; len = 0 }

let length h = h.len

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let push h e =
  if h.len = Array.length h.data then begin
    let bigger = Array.make (max 64 (2 * h.len)) e in
    Array.blit h.data 0 bigger 0 h.len;
    h.data <- bigger
  end;
  let a = h.data in
  a.(h.len) <- e;
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && h.lt a.(!i) a.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    swap a !i parent;
    i := parent
  done

let peek h = if h.len = 0 then None else Some h.data.(0)

let pop h =
  if h.len = 0 then None
  else begin
    let a = h.data in
    let top = a.(0) in
    h.len <- h.len - 1;
    a.(0) <- a.(h.len);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.len && h.lt a.(l) a.(!s) then s := l;
      if r < h.len && h.lt a.(r) a.(!s) then s := r;
      if !s = !i then sifting := false
      else begin
        swap a !i !s;
        i := !s
      end
    done;
    Some top
  end
