package repro.matching

/** Similarity measures used by the matching solutions: token Jaccard on
  * strings (plain and vocabulary-discounted), and the vocabulary-discounted
  * Jaccard of two token sets encoded against one [[TokenDictionary]], which
  * the similarity tables compute.
  */
object Similarity {

  /** Whitespace tokenization, lower-cased, empty tokens dropped. */
  def tokens(s: String): Set[String] =
    if (s == null) Set.empty
    else s.toLowerCase.split("\\s+").iterator.filter(_.nonEmpty).toSet

  /** Jaccard similarity of whitespace token sets; null-safe (null → 0). */
  def tokenJaccard(a: String, b: String): Double = {
    val ta = tokens(a); val tb = tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb).size
      inter.toDouble / (ta.size + tb.size - inter)
    }
  }

  /** Vocabulary-discounted token Jaccard: models a solution whose learned
    * token weights cover only its training vocabulary. Shared tokens the
    * solution knows count fully, shared tokens it does not know count half
    * (it sees the string equality but has no learned weight for it):
    *
    *   (|A∩B| + |A∩B∩V|) / (2·|A∪B|)
    *
    * Equal to the plain token Jaccard when every shared token is known, and
    * degrading gracefully with the out-of-vocabulary fraction — the
    * mechanism behind train/test gaps on low-vocabulary-similarity splits
    * (Frost, Appendix C.2).
    */
  def tokenJaccardKnown(a: String, b: String, vocab: Set[String]): Double = {
    val ta = tokens(a); val tb = tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb)
      val knownInter = inter.count(vocab.contains)
      val union = ta.size + tb.size - inter.size
      (inter.size + knownInter) / (2.0 * union)
    }
  }

  /** Token -> ID over the sorted distinct tokens of a dataset. Known
    * tokens (all of them without a vocabulary) are numbered from 0 up: the
    * `blockingKeys` tokens of at least [[Blocking.shortestToken]] code
    * points first, then the shorter ones. Unknown tokens are numbered from
    * -1 down. So a token may form a block exactly when its ID is in
    * `[0, blockingKeys)`, and a shared ID is known exactly when it is >= 0.
    * Sorted arrays rather than a hash map, as they serialize compactly.
    */
  private[matching] final class TokenDictionary(long: Array[String], short: Array[String], unknown: Array[String])
      extends Serializable {
    def blockingKeys: Int = long.length

    def id(t: String): Int = {
      val l = find(long, t)
      if (l >= 0) l
      else {
        val s = find(short, t)
        if (s >= 0) long.length + s
        else {
          val u = find(unknown, t)
          if (u >= 0) -1 - u else throw new IllegalStateException(s"token '$t' is not in the dictionary")
        }
      }
    }

    private def find(sorted: Array[String], t: String): Int =
      java.util.Arrays.binarySearch(sorted.asInstanceOf[Array[AnyRef]], t)
  }

  private[matching] def dictionary(distinct: Array[String], vocab: Option[Set[String]]): TokenDictionary = {
    val (known, unknown) = distinct.sorted.partition(t => vocab.forall(_.contains(t)))
    // Code points, not UTF-16 units, as Spark's `length` counts them.
    val (long, short) = known.partition(t => t.codePointCount(0, t.length) >= Blocking.shortestToken)
    new TokenDictionary(long, short, unknown)
  }

  /** The sorted IDs of the tokens of `s`; null stays null. */
  private[matching] def encode(s: String, dict: TokenDictionary): Array[Int] =
    if (s == null) null
    else {
      val ids = tokens(s).iterator.map(dict.id).toArray
      java.util.Arrays.sort(ids)
      ids
    }

  /** [[tokenJaccardKnown]] over two encoded token sets, as one sorted
    * merge: shared IDs count once, shared known (>= 0) IDs once more.
    */
  private[matching] def knownJaccard(x: Array[Int], y: Array[Int]): Double =
    if (x.length == 0 || y.length == 0) 0.0
    else {
      var i = 0; var j = 0; var inter = 0; var knownInter = 0
      while (i < x.length && j < y.length) {
        val u = x(i); val v = y(j)
        if (u < v) i += 1
        else if (v < u) j += 1
        else { inter += 1; if (u >= 0) knownInter += 1; i += 1; j += 1 }
      }
      (inter + knownInter) / (2.0 * (x.length + y.length - inter))
    }
}
