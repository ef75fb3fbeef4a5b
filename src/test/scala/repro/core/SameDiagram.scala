package repro.core

import org.scalatest.Assertions.fail

/** Equality of two confusion-matrix diagrams that, on failure, names the
  * first sample point at which they differ and both matrices there, as
  * `Table1.run` does, instead of printing both whole sequences.
  */
object SameDiagram {

  def assertSame(
      leftName: String,
      left: IndexedSeq[ConfusionMatrix],
      rightName: String,
      right: IndexedSeq[ConfusionMatrix],
  ): Unit = {
    if (left.length != right.length)
      fail(s"$leftName has ${left.length} sample points, $rightName has ${right.length}")
    val i = left.indices.indexWhere(i => left(i) != right(i))
    if (i >= 0)
      fail(s"$leftName and $rightName differ first at sample point $i of ${left.length}: " +
        s"$leftName ${left(i)}, $rightName ${right(i)}")
  }
}
