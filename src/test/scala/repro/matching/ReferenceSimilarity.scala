package repro.matching

/** Token Jaccard on strings, plain and vocabulary-discounted, and on
  * encoded token sets by a branching merge: the references the encoded
  * [[Similarity.knownJaccard]] of the similarity tables is checked against.
  */
object ReferenceSimilarity {

  /** Jaccard similarity of whitespace token sets; null-safe (null → 0). */
  def tokenJaccard(a: String, b: String): Double = {
    val ta = Similarity.tokens(a); val tb = Similarity.tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb).size
      inter.toDouble / (ta.size + tb.size - inter)
    }
  }

  /** Vocabulary-discounted token Jaccard, (|A∩B| + |A∩B∩V|) / (2·|A∪B|):
    * shared tokens in `vocab` count fully, the others half.
    */
  def tokenJaccardKnown(a: String, b: String, vocab: Set[String]): Double = {
    val ta = Similarity.tokens(a); val tb = Similarity.tokens(b)
    if (ta.isEmpty || tb.isEmpty) 0.0
    else {
      val inter = ta.intersect(tb)
      val knownInter = inter.count(vocab.contains)
      val union = ta.size + tb.size - inter.size
      (inter.size + knownInter) / (2.0 * union)
    }
  }

  /** [[Similarity.knownJaccard]] as a sorted merge that branches on each
    * comparison: shared IDs count once, shared known (>= 0) IDs once more;
    * 0.0 when either set is empty.
    */
  def knownJaccard(x: Array[Int], y: Array[Int]): Double =
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
