type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

type cursor = { s : string; mutable i : int }

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.i))

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let advance c = c.i <- c.i + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char b '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char b '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char b '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char b '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char b '\012'; loop ()
        | Some ('"' | '\\' | '/') ->
            Buffer.add_char b (Option.get (peek c));
            advance c;
            loop ()
        | Some 'u' ->
            advance c;
            if c.i + 4 > String.length c.s then fail c "bad \\u escape";
            let hex = String.sub c.s c.i 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
            in
            c.i <- c.i + 4;
            (* ASCII/Latin-1 only — all this emitter ever escapes *)
            if code < 0x100 then Buffer.add_char b (Char.chr code)
            else Buffer.add_char b '?';
            loop ()
        | _ -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when is_num_char ch -> true | _ -> false do
    advance c
  done;
  if c.i = start then fail c "expected number";
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some f -> f
  | None -> fail c "malformed number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' -> parse_obj c
  | Some '[' -> parse_arr c
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)
  | None -> fail c "unexpected end of input"

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
    advance c;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws c;
      let key = parse_string c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          members ((key, v) :: acc)
      | Some '}' ->
          advance c;
          Obj (List.rev ((key, v) :: acc))
      | _ -> fail c "expected ',' or '}'"
    in
    members []
  end

and parse_arr c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    advance c;
    Arr []
  end
  else begin
    let rec elems acc =
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          elems (v :: acc)
      | Some ']' ->
          advance c;
          Arr (List.rev (v :: acc))
      | _ -> fail c "expected ',' or ']'"
    in
    elems []
  end

let parse s =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.i <> String.length s then Error "trailing garbage"
      else Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s
